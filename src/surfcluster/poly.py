"""Exact sparse multivariate Laurent polynomials over the integers.

A polynomial is a dict from monomial keys to nonzero integer coefficients,
held in a ring, so equal polynomials of one ring have equal dictionaries
and the zero polynomial is the empty dict.  Coefficients are Python ints
(arbitrary precision); nothing here ever rounds.

Variables carry a kind, 'x' for a cluster variable or 'y' for a
coefficient, and a name.  There is one variable of each kind and name, so
`==` and the hash are by identity.  Variables are ordered by kind and then
by a natural ordering of the name ("2" before "10"), the name breaking ties.

Rings.  A ring is a set of n variables and a digit width w, 16 or 32 bits,
interned by both (`ring_of`), so a triangulation and the principal seed
over its tagged names share one.  It gives its variables one "balanced"
digit each, |e| < 2**(w-1) with no offset, in reverse VarId order, and a
top digit n that holds minus the total y-degree: the monomial with
exponents e_v is the single Python int  key = sum(e_v * unit_v), unit_v
being 2**(wj) for the variable in digit j, less 2**(wn) for a y.
Multiplying monomials is adding keys.  Integer order is lexicographic order
of the digits, top first: two keys differ by sum((b_j - a_j) * 2**(wj))
with |b_j - a_j| < 2**w, so the digits below the highest one where a and b
differ add up to less than one unit of it and cannot change the sign.  In
particular a key determines its exponents, key order is compatible with
addition, so it is a monomial order (of the Laurent monomial group), which
is what long division needs, and descending key order is the canonical
order: total y-degree ascending, then exponent vectors in descending
lexicographic order over the variables in VarId order.  Adding the offset
sum(2**(w-1) * 2**(wj)) makes every digit nonnegative without carries, and
xor-ing it back turns each digit into its two's complement, so `struct`
(one key) or an `array` of 16- or 32-bit ints (all of them at once) reads
the digits as signed fields in C.  `canonical_text` is one `sorted` of the
keys; then, a block of keys at a time, `struct` cuts each key's bytes into
runs of at most _RUN adjacent digits of one kind, and a row joins one
factor string "*t^e*u^f..." per run, which the ring caches per run and its
bytes (`_Run`), the runs in display order: y before x, each in VarId order.
When every coefficient is 1 the monomials are joined without sign or
coefficient strings.  Keys made in bulk are narrow (16-bit): the key table
of `matchings` and a seed's cluster variables.  An operation on two rings
works in the ring of their union, narrow when both rings are and its
result's bound (see below) is under 2**15, else wide (32-bit), and re-packs
each operand that lies outside it (`_repack`); a constant, key 0, fits any
ring.  `==`, the hash and the text do not depend on the ring.

Overflow guard.  Every key built from an exponent map checks its exponents
and its total y-degree: from 2**15 on a narrow ring's `monomial` builds in
the wide ring and its `pack` raises.  Each polynomial caches a bound on
|digit| over its keys, the top digit included: products and quotients
inherit the sum of their operands' bounds, a monomial its largest |digit|,
an ordinary arc's numerator the bound d + 1 of its d tiles, any other
polynomial computes its largest |digit| when first asked.  `mul` and
`div_exact` recompute the bound of their result from exact operand bounds
once it reaches 2**15, and raise ExponentOverflow if it reaches 2**31.
Long division adds a remainder key only for a quotient term in the Newton
box, so every remainder key lies in the dividend's digit range, and each
quotient term, a remainder key minus the divisor's lead, in the sum of the
bounds; a quotient that built the box takes the box's, exact, bound.
`substitute` bounds its result by b * (1 + k + the sum of its k
bindings' bounds) for a bound b of self, as the top digit also loses e for
each bound y, picks its width by that, and past 2**31 raises when the
result's digits, computed exactly, reach it.  So no digit ever spills into
its neighbour.

Substitution.  Every substitution the engine makes is by monomials with
coefficient 1: renaming variables (tag switching), setting variables to 1
(F-polynomials) and putting tropical coefficients in for the y's (the
separation formula).  So `substitute` only moves keys: each key is rebuilt
in the ring of the union of the polynomial's and the bindings' variables,
a variable with exponent e bound to the monomial with key b adding e * b
instead of e * its unit.  Terms that meet on one key merge.

Multiplication.  A product adds every pair of keys into one dict; a
polynomial times a monomial shifts the keys.  A polynomial times itself
(`pow` squares its base) visits each unordered pair of terms once: c_i**2
at 2*k_i and 2*c_i*c_j at k_i + k_j, which halves the pairs.
"""

from __future__ import annotations

import heapq
import re
import struct
import sys
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from operator import add, itemgetter, mul
from typing import Dict, FrozenSet, Iterable, List, Mapping, Tuple

__all__ = [
    "VarId",
    "Ring",
    "LaurentPoly",
    "NotDivisible",
    "ExponentOverflow",
    "NonInvertibleSubstitution",
    "xvar",
    "yvar",
    "ring_of",
    "lowest_exponents",
]


class NotDivisible(ArithmeticError):
    """Raised by div_exact when the division leaves a remainder."""


class ExponentOverflow(ArithmeticError):
    """Raised when an exponent leaves the packed range, |e| < 2**31 at most."""


class NonInvertibleSubstitution(ValueError):
    """Raised when `substitute` would bind a variable of the polynomial to
    anything but a monomial with coefficient 1, the only bindings it makes."""


_KIND_RANK = {"x": 0, "y": 1}

_CHUNKS = re.compile(r"(\d+)|(\D+)")

_BIG_ENDIAN = sys.byteorder == "big"
_LIMIT = 1 << 31              # every digit of a wide ring: |e| < _LIMIT
_NARROW = 1 << 15             # and of a narrow ring: |e| < _NARROW
_RUN = 10                     # most digits per cached factor string
_BLOCK = 256                  # keys rendered per block


def _natural_key(name: str) -> Tuple:
    # "10" sorts after "2", "a10b" after "a2z"
    return tuple(
        (0, int(num)) if num else (1, alpha)
        for num, alpha in _CHUNKS.findall(name)
    )


class _Run(dict):
    """The factor strings of a run of adjacent digits of one kind, by the
    run's bytes, filled on first use: "*t" or "*t^e" for each nonzero
    digit, highest digit first."""

    __slots__ = ("texts", "codec")

    def __init__(self, variables: Tuple[VarId, ...], fmt: str):
        self.texts = [v.text() for v in reversed(variables)]
        self.codec = struct.Struct(f"<{len(variables)}{fmt}")

    def __missing__(self, b: bytes) -> str:
        s = self[b] = "".join([
            f"*{t}" if e == 1 else f"*{t}^{e}"
            for t, e in zip(self.texts, self.codec.unpack(b)[::-1]) if e])
        return s


_AFTER_STAR = itemgetter(slice(1, None))

# kind -> name -> its one variable
_INTERNED: Dict[str, Dict[str, "VarId"]] = {k: {} for k in _KIND_RANK}


@dataclass(frozen=True, eq=False, init=False)
class VarId:
    """A symbol: kind 'x' or 'y' plus the (tagged) arc name it refers to.
    There is one VarId per kind and name: `VarId(kind, name)` returns it,
    so `==` and the hash are by identity."""

    kind: str
    name: str
    _key: Tuple = field(repr=False)

    def __new__(cls, kind: str, name: str) -> "VarId":
        names = _INTERNED.get(kind)
        if names is None:
            raise ValueError(f"unknown variable kind {kind!r}")
        v = names.get(name)
        if v is None:
            v = names[name] = object.__new__(cls)
            # the name itself breaks ties such as "01" and "1"
            vars(v).update(kind=kind, name=name, _key=(
                _KIND_RANK[kind], _natural_key(name), name))
        return v

    def __reduce__(self):                # copies and pickles stay interned
        return VarId, (self.kind, self.name)

    def __lt__(self, other: "VarId") -> bool:
        return self._key < other._key

    def text(self) -> str:
        if self.name and self.name[0].isdigit():
            return f"{self.kind}{self.name}"
        return f"{self.kind}_{self.name}"


def xvar(name: str) -> VarId:
    return VarId("x", name)


def yvar(name: str) -> VarId:
    return VarId("y", name)


# An exponent vector as the other modules see it: sorted tuple of
# (VarId, nonzero int).
ExpVec = Tuple[Tuple[VarId, int], ...]


class Ring:
    """A set of variables and its key layout in digits of `bits` bits, 16
    or 32 (see "Rings"); `ring_of` makes the one ring of each."""

    __slots__ = ("set", "vars", "bits", "fmt", "units", "width", "off",
                 "codec", "rows", "runs")

    def __init__(self, variables: FrozenSet[VarId], bits: int = 32):
        self.set = variables
        self.vars = vs = tuple(sorted(variables, reverse=True))
        n = len(vs)
        self.bits, self.fmt = bits, {16: "h", 32: "i"}[bits]
        top = 1 << (bits * n)
        self.units = {v: (1 << (bits * j)) - (top if v.kind == "y" else 0)
                      for j, v in enumerate(vs)}
        self.width = n + 1
        self.off = sum(1 << (bits * j + bits - 1) for j in range(n + 1))
        self.codec = struct.Struct(f"<{n + 1}{self.fmt}")
        # runs of at most _RUN adjacent digits of one kind, one bytes field
        # of `rows` each, kept as (field, its strings) in display order: y
        # before x, each in VarId order, so the highest digits first
        ny = sum(v.kind == "y" for v in vs)
        spans = [(a, min(a + _RUN, end)) for lo, end in ((0, ny), (ny, n))
                 for a in range(lo, end, _RUN)]
        self.rows = struct.Struct("<" + "".join(
            f"{bits // 8 * (b - a)}s" for a, b in spans) + f"{bits // 8}x")
        self.runs = [(i, _Run(vs[a:b], self.fmt)) for i, (a, b) in sorted(
            enumerate(spans), key=lambda f: (f[1][0] >= ny, -f[1][0]))]

    def monomial(self, exps: Mapping[VarId, int], coeff: int = 1
                 ) -> "LaurentPoly":
        """coeff times the monomial of an exponent map over variables of
        the ring, bounded by the largest |digit| of its key; in the wide
        ring of the set when a digit leaves a narrow ring's range."""
        if not coeff:
            return LaurentPoly.zero()
        key = ydeg = bound = 0
        for v, e in exps.items():
            u = self.units[v]
            key += e * u
            if u < 0:                     # a y: its unit borrows the top digit
                ydeg += e
            if e > bound or -e > bound:
                bound = abs(e)
        bound = max(bound, abs(ydeg))
        if bound >= _LIMIT:
            raise ExponentOverflow(f"exponent or total y-degree {bound} "
                                   "out of range")
        if bound >= _NARROW and self.bits == 16:
            return ring_of(self.set).monomial(exps, coeff)
        return LaurentPoly.from_packed({key: int(coeff)}, bound, self)

    def pack(self, exps: Mapping[VarId, int]) -> int:
        """The key of an exponent map over variables of the ring; raises
        ExponentOverflow when a digit leaves the ring's range."""
        p = self.monomial(exps)
        if p._ring is not self:
            raise ExponentOverflow(f"exponents past {self.bits}-bit digits")
        (key,) = p._terms
        return key

    def digits(self, key: int) -> Tuple[int, ...]:
        """The n + 1 digits of one key, lowest first."""
        return self.codec.unpack(
            ((key + self.off) ^ self.off).to_bytes(self.codec.size, "little"))

    def columns(self, keys: Iterable[int]) -> List["array[int]"]:
        """Digit j of every key, for j = 0 .. n (the top digit last)."""
        off, size, m = self.off, self.codec.size, self.width
        flat = array(self.fmt, b"".join([
            ((k + off) ^ off).to_bytes(size, "little") for k in keys]))
        if _BIG_ENDIAN:
            flat.byteswap()
        return [flat[j::m] for j in range(m)]

    def expvec(self, key: int) -> ExpVec:
        """One key's nonzero exponents, in VarId order."""
        pairs = tuple(zip(self.vars, self.digits(key)))
        return tuple((v, e) for v, e in reversed(pairs) if e)


_RINGS: Dict[Tuple[FrozenSet[VarId], int], Ring] = {}


def ring_of(variables: Iterable[VarId], bits: int = 32) -> Ring:
    """The one ring of a set of variables with digits of `bits` bits."""
    s = (frozenset(variables), bits)
    ring = _RINGS.get(s)
    return ring if ring is not None else _RINGS.setdefault(s, Ring(*s))


def bits_for(bound: int) -> int:
    """The digit width of keys whose |digit| `bound` bounds."""
    return 16 if bound < _NARROW else 32


_CONST = ring_of(())


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


def _repack(p: "LaurentPoly", ring: Ring,
            image: Mapping[VarId, int]) -> Dict[int, int]:
    """p's terms in `ring`, which holds p's variables: each key rebuilt
    from its digits, a variable v counting as the key image[v] if given,
    else as its unit in `ring`; terms that meet merge."""
    src = p._ring
    keys: Iterable[int] = [0] * len(p._terms)
    for v, col in zip(src.vars, src.columns(p._terms)):
        keys = map(add, keys, map(mul, col, repeat(image.get(v, ring.units[v]))))
    return _merge({}, zip(keys, p._terms.values()))


def _common(a: "LaurentPoly", b: "LaurentPoly", bound: int = 0
            ) -> Tuple[Ring, Dict[int, int], Dict[int, int]]:
    """(ring, a's terms, b's terms) in one ring for a result whose |digit|
    `bound` bounds: the shared one (a constant shares any), else that of
    the union, narrow if both rings and `bound` are (see "Rings")."""
    ra, rb = a._ring, b._ring
    ra, rb = (ra if ra.vars else rb), (rb if rb.vars else ra)
    if ra is rb and (bound < _NARROW or ra.bits == 32):
        return ra, a._terms, b._terms
    ring = ring_of(ra.set | rb.set, max(bits_for(bound), ra.bits, rb.bits))
    return (ring, a._terms if a._ring is ring else _repack(a, ring, {}),
            b._terms if b._ring is ring else _repack(b, ring, {}))


class LaurentPoly:
    """Immutable Laurent polynomial; supports add, sub, mul, pow and exact
    division."""

    __slots__ = ("_terms", "_ring", "_bound")

    @classmethod
    def from_packed(cls, terms: Dict[int, int], bound: int | None,
                    ring: Ring) -> "LaurentPoly":
        """Wrap a dict of keys of `ring` to nonzero coefficients (not
        copied); `bound`, if not None, bounds every |digit|."""
        p = object.__new__(cls)
        p._terms = terms
        p._ring = ring
        p._bound = bound
        return p

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly.from_packed({}, 0, _CONST)

    @staticmethod
    def const(n: int) -> "LaurentPoly":
        return LaurentPoly.from_packed({0: int(n)} if n else {}, 0, _CONST)

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly.const(1)

    @staticmethod
    def var(v: VarId, exp: int = 1) -> "LaurentPoly":
        return LaurentPoly.monomial(1, {v: exp})

    @staticmethod
    def monomial(coeff: int, exps: Mapping[VarId, int]) -> "LaurentPoly":
        if coeff == 0:
            return LaurentPoly.zero()
        return ring_of(exps).monomial(exps, coeff)

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
        return c, dict(self._ring.expvec(k))

    def terms(self) -> Iterable[Tuple[ExpVec, int]]:
        expvec = self._ring.expvec
        return [(expvec(k), c) for k, c in self._terms.items()]

    def num_terms(self) -> int:
        return len(self._terms)

    def variables(self) -> set:
        ring = self._ring
        return {v for v, col in zip(ring.vars, ring.columns(self._terms))
                if any(col)}

    def coefficients(self) -> Iterable[int]:
        return self._terms.values()

    def _max_exp(self, exact: bool = False) -> int:
        """A bound on |digit| over all keys, cached.  Ring operations pass
        one on from their operands; the largest |digit| itself is computed
        when no bound is known or `exact`."""
        b = self._bound
        if b is None or exact:
            cols = self._ring.columns(self._terms)
            b = self._bound = max(max(max(c), -min(c)) for c in cols) \
                if self._terms else 0
        return b

    def _product_bound(self, other: "LaurentPoly") -> int:
        """A bound on |digit| in self * other or self / other, exact from
        2**15 on; raises ExponentOverflow if a digit could reach 2**31."""
        ba, bb = self._max_exp(), other._max_exp()
        if ba + bb >= _NARROW:
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
        ring, a, b = _common(self, other)
        out = _merge(dict(a), b.items())
        ba, bb = self._bound, other._bound
        return LaurentPoly.from_packed(
            out, None if ba is None or bb is None else max(ba, bb), ring)

    def neg(self) -> "LaurentPoly":
        return LaurentPoly.from_packed(
            {k: -c for k, c in self._terms.items()}, self._bound, self._ring)

    def sub(self, other: "LaurentPoly") -> "LaurentPoly":
        return self.add(other.neg())

    def mul(self, other: "LaurentPoly") -> "LaurentPoly":
        if not self._terms or not other._terms:
            return LaurentPoly.zero()
        bound = self._product_bound(other)
        ring, a, b = _common(self, other, bound)
        if len(a) < len(b):
            a, b = b, a
        if len(b) == 1:
            (kb, cb), = b.items()
            return LaurentPoly.from_packed(
                {k + kb: c * cb for k, c in a.items()}, bound, ring)
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
            {k: c for k, c in out.items() if c}, bound, ring)

    def pow(self, n: int) -> "LaurentPoly":
        if n < 0:
            raise ValueError(f"negative exponent {n}")
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
        ring, num, den = _common(self, other, bound)
        if other.is_monomial():
            (kd, cd), = den.items()
            if cd == 1:
                return LaurentPoly.from_packed(
                    {k - kd: c for k, c in num.items()}, bound, ring)
        return self._long_division(num, den, ring, bound)

    @staticmethod
    def _long_division(num: Dict[int, int], den: Dict[int, int],
                       ring: Ring, bound: int) -> "LaurentPoly":
        # num / den in the ring, `bound` bounding |digit| of num plus that
        # of den.  Leads pop from a heap of pending keys.  A product adds a
        # key only after its quotient term passes the Newton box
        # [min num - min den, max num - max den], built at the first such
        # term (an exact quotient's Newton polytope is num's minus den's).
        # So every remainder key is a dividend key or a box term times a
        # divisor term, in num's digit range, and a quotient term, a
        # remainder key minus den's lead, has |digit| <= bound, the
        # quotient's bound unless the box, exact, was built.  Quotient keys
        # strictly decrease, so finitely many pass the box and add keys,
        # every other step removes one, and the loop ends only with the
        # remainder empty.
        den_lead = max(den)
        den_lc = den[den_lead]
        rest = [(k - den_lead, c) for k, c in den.items() if k != den_lead]
        rem = dict(num)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quo: Dict[int, int] = {}
        box = None
        while heap:
            lead = -heapq.heappop(heap)
            c = rem.pop(lead, 0)
            if not c:
                continue  # cancelled, or a second heap entry
            q, r = divmod(c, den_lc)
            if r:
                raise NotDivisible("leading coefficient not divisible")
            quo[lead - den_lead] = q
            for dk, dc in rest:
                k = lead + dk
                old = rem.get(k)
                if old is None:
                    box = box or [(min(a) - min(b), max(a) - max(b)) for a, b
                                  in zip(ring.columns(num), ring.columns(den))]
                    if not all(low <= e <= high for e, (low, high)
                               in zip(ring.digits(lead - den_lead), box)):
                        raise NotDivisible("leading monomial not divisible")
                    rem[k] = -q * dc
                    heapq.heappush(heap, -k)
                else:
                    s = old - q * dc
                    if s:
                        rem[k] = s
                    else:
                        del rem[k]
        return LaurentPoly.from_packed(quo, bound if box is None else max(
            max(-low, high) for low, high in box), ring)

    # -- substitution ------------------------------------------------------

    def substitute(self, bindings: Mapping[VarId, "LaurentPoly"]) -> "LaurentPoly":
        """Simultaneous substitution of variables by monomials.

        Every variable of self that is bound must be bound to a monomial
        with coefficient 1 (NonInvertibleSubstitution otherwise).  Each key
        is then rebuilt in the ring of the union of self's and the
        bindings' variables, a bound variable counting as its binding's
        key, and terms that land on one key merge.
        """
        if not bindings:
            return self
        src = self._ring
        cols = src.columns(self._terms)
        bound = {v: bindings[v] for v, col in zip(src.vars, cols)
                 if v in bindings and any(col)}
        if not bound:
            return self
        for v, b in bound.items():
            if len(b._terms) != 1 or 1 not in b._terms.values():
                raise NonInvertibleSubstitution(
                    f"{v.text()} bound to {b.canonical_text()}, not to a "
                    "monomial with coefficient 1")
        new_bound = self._max_exp() * (
            1 + len(bound) + sum(b._max_exp() for b in bound.values()))
        ring = ring_of(src.set.union(*(b._ring.set for b in bound.values())),
                       bits_for(new_bound))
        image = {v: ring.pack(b.monomial_parts()[1]) for v, b in bound.items()}
        if new_bound >= _LIMIT:
            # the result's digits: each term's exponents times the digits
            # of the key each variable counts as
            images = [ring.digits(image.get(v, ring.units[v]))
                      for v in src.vars]
            new_bound = max(abs(sum(map(mul, row, col)))
                            for row in zip(*cols[:-1]) for col in zip(*images))
            if new_bound >= _LIMIT:
                raise ExponentOverflow(f"substituted exponents up to "
                                       f"{new_bound} leave the packed range "
                                       "|e| < 2**31")
        return LaurentPoly.from_packed(_repack(self, ring, image), new_bound,
                                       ring)

    # -- canonical text ----------------------------------------------------

    def canonical_text(self) -> str:
        """Deterministic rendering in descending key order: total y-degree
        ascending, then exponent vectors in descending lexicographic order
        over the variables in VarId order (larger leading exponents print
        first); factors print y before x."""
        terms = self._terms
        if not terms:
            return "0"
        ring = self._ring
        if not ring.vars:
            return str(terms[0])
        keys = sorted(terms, reverse=True)
        off, size, runs = ring.off, ring.rows.size, ring.runs
        monos: List[str] = []
        for i in range(0, len(keys), _BLOCK):
            cols = list(zip(*ring.rows.iter_unpack(b"".join([
                ((k + off) ^ off).to_bytes(size, "little")
                for k in keys[i:i + _BLOCK]]))))
            monos += map(_AFTER_STAR, map("".join, zip(*[
                map(run.__getitem__, cols[j]) for j, run in runs])))
        coeffs = list(map(terms.__getitem__, keys))
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

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        _, a, b = _common(self, other)
        return a == b

    def __hash__(self) -> int:
        return hash(frozenset(self.terms()))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"LaurentPoly({self.canonical_text()})"


def lowest_exponents(*polys: LaurentPoly) -> Dict[VarId, int]:
    """Per variable, the least exponent over all terms of all the
    polynomials (a variable a term lacks counts as exponent 0); zero
    entries are left out."""
    polys = tuple(p for p in polys if p._terms)
    ring = ring_of(frozenset().union(*(p._ring.set for p in polys)), max(
        [p._ring.bits for p in polys if p._ring.vars], default=16))
    keys = [k for p in polys
            for k in (p._terms if p._ring is ring else _repack(p, ring, {}))]
    return {v: e for v, e in zip(ring.vars, map(min, ring.columns(keys)))
            if e}
