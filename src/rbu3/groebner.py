"""Buchberger's algorithm, reduced Groebner bases, and ideal membership.

The engine is deliberately plain: normal pair selection (minimal lcm degree,
then smallest pair index), the product and chain criteria, full normal-form
reduction, and monic auto-reduced output.  Three implementation notes:

* Each call is one packed session (Bachmann and Schoenemann, ISSAC 1998).
  A monomial is one int: a field per variable, whose top bit is a guard
  kept clear, under an order key linear in the exponents.  So ints compare
  as their monomials, a product or quotient is one addition or
  subtraction, and divisibility and lcm are masks on one subtraction's
  guard bits.  Fields are as narrow as the input's exponents allow; a
  product that reaches a guard bit raises, and the whole call is redone
  with fields twice as wide.  ``buchberger`` packs its generators once,
  works on lead entries (leading data computed once per polynomial) in
  divisor views of stable descending lead order, and unpacks only its
  basis, or the partial one a limit raises with.  Division takes terms
  largest first, by the first divisor in view order: counters and bases
  are those of the plain loop.  A view buckets its leads by their lowest
  nonzero field, so division and the chain criterion test only the leads
  in the fields of m or of the lcm; the divisor is still the first in
  view order (``_View``).  An S-pair is one int heap key, its lcm degree,
  i and j above a coprime bit, so pairs pop in (degree, i, j) order.
  Leads with disjoint supports (one AND) are coprime, the product
  criterion's case, and are settled when pushed: the key takes the sum of
  their degrees, and the pop computes no lcm and only marks the pair
  treated.  Any pair counts as treated from its pop, which is what the
  chain criterion reads.
* Interreduction divides each element by the others' leading terms and
  their monomial multiples, pass after pass.  Whether a set is reduced
  depends only on its leads, so it stops after the first pass that moves
  no surviving lead.  This is more than Gaussian elimination on the
  coefficient rows (under grevlex ``[x^2 - y, x - 1]`` becomes
  ``[x - 1, y - 1]``), so linear elements substitute themselves into the
  rest, and the ansatz systems collapse.  It opens and closes each
  ``buchberger`` call (on a set containing a Groebner basis it gives the
  unique reduced basis); ``autoreduce`` runs it on polynomials.  It
  returns ``[1]`` at the first element that is, or reduces to, a nonzero
  constant: 1 divides every monomial, so that is the fixpoint.
* Inside the engine an integral coefficient is an ``int`` (``as_int``,
  on packing and on making a remainder monic), so most products a
  division takes are int products.  Every division goes through
  ``Fraction``, as ``/`` of two ints would give a float, and unpacking
  turns the ints back into ``Fraction``: values, and so divisors,
  counters and bases, are those of an all-``Fraction`` engine.

Resource limits are explicit inputs, and :class:`Limits` is the one reader
of the clock; exceeding one raises :class:`ResourceLimitExceeded` carrying
the partial basis, never a wrong answer.
"""

from __future__ import annotations

import heapq
import struct
import time
from bisect import insort
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain
from math import inf
from operator import itemgetter
from typing import Iterable, Sequence

from .poly import (MonomialOrder, MultiPoly, VarTable, add_terms, as_int,
                   check_fields, grevlex, elimination, parse_poly, read_json,
                   strings)

__all__ = [
    "PolySystem",
    "GroebnerBasis",
    "Limits",
    "ResourceLimitExceeded",
    "s_polynomial",
    "normal_form",
    "autoreduce",
    "buchberger",
    "ideal_member",
    "eliminate",
]


class ResourceLimitExceeded(RuntimeError):
    """A limit was hit; carries the partial basis (still inside the ideal)."""

    def __init__(self, message: str, partial: list, stats: "GBStats"):
        super().__init__(message)
        self.partial = partial
        self.stats = stats


@dataclass
class Limits:
    """``max_pairs`` S-pairs per Groebner run and ``deadline`` wall-clock
    seconds (None: no bound).  ``start`` fixes the deadline once, on a copy
    that the calls it is passed to share; ``expired`` and ``check`` read it."""

    max_pairs: int | None = None
    deadline: float | None = None
    _end: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name, value in (("max_pairs", self.max_pairs), ("deadline", self.deadline)):
            if value is not None and not value >= 0:  # NaN fails too
                raise ValueError(f"{name} must be nonnegative, not {value}")

    def start(self) -> "Limits":
        if self._end is not None:
            return self
        started = Limits(self.max_pairs, self.deadline)
        started._end = inf if self.deadline is None else self.clock() + self.deadline
        return started

    @property
    def clock(self):
        """The clock deadlines are read on: ``time.monotonic``."""
        return time.monotonic

    def expired(self) -> bool:
        return self.clock() >= self._end

    def check(self, stats: "GBStats", partial) -> None:
        """Raise :class:`ResourceLimitExceeded` with ``partial()`` past a limit."""
        if self.max_pairs is not None and stats.pairs_considered > self.max_pairs:
            raise ResourceLimitExceeded(
                f"resource limit: more than {self.max_pairs} pairs", partial(), stats)
        if self.expired():
            raise ResourceLimitExceeded("resource limit: deadline exceeded",
                                        partial(), stats)


@dataclass
class GBStats:
    pairs_considered: int = 0
    pairs_reduced: int = 0
    zero_reductions: int = 0
    # always 0: the engine has one pair loop and never restarts, but the
    # field stays part of the ``stats`` JSON of ``gb`` and ``case``
    restarts: int = 0
    basis_size: int = 0

    def to_json(self):
        return asdict(self)


@dataclass(frozen=True)
class PolySystem:
    """A finite generator list for an ideal, with its monomial order."""

    table: VarTable
    gens: tuple
    order: MonomialOrder = field(default_factory=grevlex)

    def __post_init__(self):
        for g in self.gens:
            if not isinstance(g, MultiPoly) or g.table != self.table:
                raise ValueError("generators must be polynomials over the shared table")
            if g.is_zero():
                raise ValueError("generators must be nonzero")

    def localize(self, q: MultiPoly, name: str = "u_inv") -> "PolySystem":
        """Adjoin ``name`` with relation ``name * q - 1`` (forces q invertible)."""
        if name in self.table.index:
            raise ValueError(f"variable {name!r} already present")
        table = VarTable(self.table.names + (name,))
        lifted = [g.retable(table) for g in self.gens]
        relation = table.var(name) * q.retable(table) - 1
        return PolySystem(table, tuple(lifted) + (relation,), self.order)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "vars": list(self.table.names),
            "order": self.order.to_json(),
            "gens": [g.to_str(self.order) for g in self.gens],
        }

    @staticmethod
    def from_json(data: dict) -> "PolySystem":
        """A field of the wrong JSON type raises ValueError."""
        check_fields("system", data, (
            (key, type(data[key]) is list and strings(data[key]))
            for key in ("vars", "gens")))
        table = VarTable(data["vars"])
        order = MonomialOrder.from_json(data.get("order", "grevlex"))
        gens = tuple(parse_poly(t, table) for t in data["gens"])
        return PolySystem(table, gens, order)

    @staticmethod
    def load(path) -> "PolySystem":
        return PolySystem.from_json(read_json(path, "vars", "gens"))


@dataclass
class GroebnerBasis:
    system: PolySystem
    basis: tuple
    reduced: bool
    stats: GBStats

    @cached_property
    def _width(self) -> int:
        return _fit(self.basis)

    @cached_property
    def _views(self) -> dict:  # the basis as a divisor view, by packing
        return {}

    def contains(self, p: MultiPoly) -> bool:
        """Zero normal form against the basis: proves membership for any
        basis, and decides it when the basis is a Groebner basis."""
        def run(pk):
            if pk not in self._views:
                self._views[pk] = pk.view(self.basis)
            return not _reduce(pk.terms(p), self._views[pk], pk)
        return _packed(run, [p], self.system.table, self.system.order,
                       self._width)

    def verify(self) -> bool:
        """Recheck the defining properties: generators and S-pairs reduce to
        0, and a reduced basis is monic, each element its own remainder by
        the others."""
        order, basis = self.system.order, self.basis
        if not all(self.contains(g) for g in self.system.gens):
            return False
        if not all(self.contains(s_polynomial(f, g, order))
                   for i, f in enumerate(basis) for g in basis[i + 1:]):
            return False

        def reduced(pk):
            # an element leaves the view for good: a lead above its own
            # divides none of its terms, and an equal lead is still there
            view = pk.view(basis)
            for entry in list(view):
                view.remove(entry)
                if (entry[3][entry[0]] != 1
                        or _reduce(dict(entry[3]), view, pk) != entry[3]):
                    return False
            return True
        return not self.reduced or _packed(reduced, basis, self.system.table,
                                           order, self._width)

    def to_json(self) -> dict:
        data = self.system.to_json()
        data["basis"] = [g.to_str(self.system.order) for g in self.basis]
        data["reduced"] = self.reduced
        data["stats"] = self.stats.to_json()
        return data


class _Overflow(Exception):
    """An exponent reached the guard bit of its field; carries the width."""


class _Packing:
    """Monomials in ``n`` variables under ``order``, ``width`` bytes a field.

    The exponent word holds variable i in field i from the low end (field
    n-1-i under lex, so the word itself is ordered); a packed monomial is
    ``(key << n*w) + word``.  The key is 0 under lex, and under elimination(k)
    (grevlex: k = n) ``(d_h << A) - (E_h << B) + (d_t << C) - E_t``, for the
    words E_h of the first k fields and E_t of the rest, of degrees d_h and
    d_t: each part stays in its bits, so keys compare as order keys do.
    """

    def __init__(self, n: int, order: MonomialOrder, width: int):
        w = 8 * width
        self.n, self.width, self.bits = n, width, n * w
        self.lex = order.kind == "lex"
        self.low = (1 << self.bits) - 1
        self.ones = sum(1 << (i * w) for i in range(n))  # a 1 in each field
        self.guards = self.ones << (w - 1)
        self.marks = self.guards | 1 << self.bits  # the bucket keys (_View)
        self.field, self.top = (1 << w) - 1, self.bits - w
        self.byteorder = byteorder = "big" if self.lex else "little"
        code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(width)  # struct codes
        if code is not None:
            layout = struct.Struct(f"{'>' if self.lex else '<'}{n}{code}")
            self._to_bytes, self._from_bytes = layout.pack, layout.unpack
        else:
            self._to_bytes = lambda *mono: b"".join(
                e.to_bytes(width, byteorder) for e in mono)
            self._from_bytes = lambda data: tuple(
                int.from_bytes(data[i:i + width], byteorder)
                for i in range(0, len(data), width))
        self.k = k = min(order.block, n) if order.kind == "elim" else n
        self.head = (1 << (k * w)) - 1
        self.head_bits = k * w
        self.C = (n - k) * w
        self.B = self.C + w + n.bit_length()  # d_t < n * 2**(w-1) fits
        self.A = self.B + k * w

    def pack(self, mono) -> int:
        word = int.from_bytes(self._to_bytes(*mono), self.byteorder)
        if self.lex:
            return word
        k = self.k
        key = (sum(mono[:k]) << self.A) - ((word & self.head) << self.B)
        if k < self.n:
            key += (sum(mono[k:]) << self.C) - (word >> self.head_bits)
        return (key << self.bits) + word

    def unpack(self, m: int) -> tuple:
        return self._from_bytes((m & self.low).to_bytes(self.bits // 8,
                                                        self.byteorder))

    def monomial(self, word: int, degree: int) -> int:
        """The packed monomial of a word of total degree ``degree``."""
        if self.lex:
            return word
        if self.k < self.n:
            return self.pack(self.unpack(word))
        bits = self.bits  # grevlex: the key is (degree << A) - (word << B)
        return (degree << self.A + bits) + word * (1 - (1 << self.B + bits))

    def lcm(self, a: int, b: int) -> int:
        """The word of the lcm of two monomials (packed, or words)."""
        a &= self.low
        b &= self.low
        ge = ((a | self.guards) - b) & self.guards  # guard set where a >= b
        take_a = ge - (ge >> (8 * self.width - 1))
        return b ^ ((a ^ b) & take_a)

    def terms(self, p: MultiPoly) -> dict:
        return {self.pack(m): as_int(c) for m, c in p.terms.items()}

    def poly(self, table: VarTable, terms: dict) -> MultiPoly:
        return MultiPoly(table, {self.unpack(m): c for m, c in terms.items()})

    def polys(self, table: VarTable, entries: Iterable) -> list:
        return [self.poly(table, e[3]) for e in entries]

    def entry(self, terms: dict, monic: bool = False):
        """(lead, lead word, tail, terms, key), of ``terms`` divided by their
        lead coefficient if ``monic``; the tail pairs each other term with
        -c/lc, what a division step adds per unit of the term, and the key
        is the lead's bucket in a view (``_View``)."""
        lead = max(terms)
        lc = as_int(terms[lead])
        if lc != 1 and monic:
            inv, lc = Fraction(1) / lc, 1  # int / int gives a float
            terms = {m: as_int(c * inv) for m, c in terms.items()}
        if lc == 1:
            tail = [(m, -as_int(c)) for m, c in terms.items() if m != lead]
        else:
            inv = Fraction(-1) / lc
            tail = [(m, as_int(c * inv)) for m, c in terms.items() if m != lead]
        marks = ((lead | self.marks) - self.ones) & self.marks
        return (lead, lead & self.low, tail, terms, marks & -marks)

    def view(self, polys: Iterable[MultiPoly]) -> "_View":
        """The divisor view of the polynomials' lead entries."""
        return _View([self.entry(self.terms(g)) for g in polys if g])


@cache
def _packing(n: int, order: MonomialOrder, width: int) -> _Packing:
    return _Packing(n, order, width)


def _fit(polys: Iterable[MultiPoly]) -> int:
    """The least field width in bytes (1, 2, 4, ...) whose 8 * width - 1
    value bits, below the guard, hold every exponent of ``polys``."""
    top = max(chain.from_iterable(chain.from_iterable(p.terms for p in polys)),
              default=0)
    return 1 << (top.bit_length() // 8).bit_length()


def _packed(run, polys, table: VarTable, order: MonomialOrder, width: int = 1):
    """``run(packing)`` at the narrowest width that holds ``polys`` (and at
    least ``width``), redone with fields twice as wide after an overflow."""
    width = max(width, _fit(polys))
    while True:
        try:
            return run(_packing(len(table), order, width))
        except _Overflow as exc:
            width = 2 * exc.args[0]


_lead = itemgetter(0)  # the packed leading monomial of a lead entry


class _View:
    """Lead entries in stable descending lead order, as a divisor index.

    An entry's key is the guard bit of its lead's lowest nonzero field, or
    the bit above the word for the constant lead.  Buckets by key are runs
    of the view, and equal leads share one.  A lead divides m only if m is
    nonzero in its bucket's field, and ``occupied``, the OR of the keys,
    picks those buckets out of m with one AND, the constant's last.  A
    bucket that ``remove`` empties stays: an interreduction mostly puts
    back a remainder with the lead it removed.
    """

    def __init__(self, entries: Iterable):
        self.buckets = buckets = {}
        for entry in sorted(entries, key=_lead, reverse=True):
            buckets.setdefault(entry[4], []).append(entry)
        self.occupied = sum(buckets)  # distinct bits: their OR

    def insort(self, entry) -> None:
        """After every entry whose lead is not smaller, as a stable sort would."""
        bucket = self.buckets.get(entry[4])
        if bucket is None:
            self.buckets[entry[4]] = [entry]
            self.occupied |= entry[4]
        else:
            insort(bucket, entry, key=lambda e: -e[0])

    def remove(self, entry) -> None:
        self.buckets[entry[4]].remove(entry)

    def __iter__(self):
        """The entries in view order."""
        return iter(sorted(chain.from_iterable(self.buckets.values()),
                           key=_lead, reverse=True))


def _reduce(work: dict, view: _View, pk: _Packing) -> dict:
    """Remainder of the packed terms ``work`` (consumed) by the divisor view.

    Terms leave a heap largest first.  A reduction step only adds terms
    below the one it removes, so each monomial enters the heap once; one
    that cancels stays there with coefficient 0 and is skipped when popped.
    The remainder's terms are stored largest first, so its first term leads.

    The divisor is the first dividing entry in view order: the largest
    lead among the first divisors in m's buckets, each bucket scanned until
    its leads fall below the best found so far.
    """
    guards, marks, ones = pk.guards, pk.marks, pk.ones
    buckets, occupied = view.buckets, view.occupied
    heap = [-m for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = -heapq.heappop(heap)
        coeff = work.pop(m)
        if not coeff:
            continue
        probe = m | marks  # no field borrows, so the order key above is inert
        present = (probe - ones) & occupied
        divisor, bound = None, -1
        while present:
            key = present & -present
            present ^= key
            for entry in buckets[key]:
                if entry[0] < bound:
                    break
                if (probe - entry[1]) & guards == guards:
                    divisor, bound = entry, entry[0]
                    break
        if divisor is None:
            remainder[m] = coeff
            continue
        shift = m - divisor[0]
        for t, c in divisor[2]:
            t += shift
            if t & guards:
                raise _Overflow(pk.width)
            acc = work.get(t)
            if acc is None:
                work[t] = coeff * c
                heapq.heappush(heap, -t)
            else:
                work[t] = acc + coeff * c
    return remainder


def _s_terms(pk: _Packing, f, g, lcm: int) -> dict:
    """Packed S(f, g) = (lcm/lt f) f - (lcm/lt g) g for lead entries f, g and
    their leads' packed lcm, built monically; the leads cancel."""
    shift_f, shift_g = lcm - f[0], lcm - g[0]
    terms = {shift_f + m: -c for m, c in f[2]}
    add_terms(terms, ((shift_g + m, c) for m, c in g[2]))
    if any(m & pk.guards for m in terms):
        raise _Overflow(pk.width)
    return terms


def s_polynomial(f: MultiPoly, g: MultiPoly, order: MonomialOrder) -> MultiPoly:
    """S(f,g) = (lcm/lt(f)) f - (lcm/lt(g)) g, built monically."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial")
    if f.table != g.table:
        raise ValueError("incompatible operands: different variable tables")
    def run(pk):
        ef, eg = pk.entry(pk.terms(f)), pk.entry(pk.terms(g))
        lcm = pk.pack(pk.unpack(pk.lcm(ef[1], eg[1])))
        return pk.poly(f.table, _s_terms(pk, ef, eg, lcm))
    return _packed(run, (f, g), f.table, order)


def normal_form(p: MultiPoly, basis: Sequence[MultiPoly],
                order: MonomialOrder | None = None) -> MultiPoly:
    """Remainder of multivariate division of p by the basis.

    Fully reduced: no term of the result is divisible by any leading
    monomial of the basis, and ``p - result`` lies in the ideal the basis
    generates.  Divisor choice is the first element in descending
    leading-monomial order (basis order among equal leading monomials),
    which makes the result deterministic.
    """
    order = order or grevlex()
    basis = list(basis)
    return _packed(lambda pk: pk.poly(
        p.table, _reduce(pk.terms(p), pk.view(basis), pk)),
        [p, *basis], p.table, order)


def _interreduce(entries: list, pk: _Packing, check) -> _View:
    """``autoreduce`` on lead entries, returned as their divisor view.

    Each entry is divided by a view of the others in stable descending lead
    order: the entry leaves it, its remainder enters.  A remainder's lead
    equals no lead in the view that reduced it, so only entries still to
    come tie, in input order, and a pass ends with the view of its
    remainders.  ``check`` is called before each division with a callable
    that returns entries of the same ideal.
    """
    if any(not e[0] for e in entries):  # the constant monomial packs to 0
        return _View([pk.entry({0: 1})])
    current, moved, view = entries, True, _View(entries)
    while moved:
        moved, nxt = False, []
        for i, entry in enumerate(current):
            check(lambda: nxt + current[i:])
            view.remove(entry)
            r = _reduce(dict(entry[3]), view, pk)
            if not r:
                continue
            reduced = pk.entry(r, monic=True)
            if not reduced[0]:
                return _View([reduced])
            moved = moved or reduced[0] != entry[0]
            nxt.append(reduced)
            view.insort(reduced)
        current = nxt
    return view


def autoreduce(polys: Iterable[MultiPoly], order: MonomialOrder | None = None,
               limits: Limits | None = None) -> list:
    """Interreduce a set (the module docstring's second note): the monic
    remainders, sorted by leading monomial, descending; ``[1]`` when a
    constant appears.  Before each polynomial is reduced, the started
    ``limits`` check this call's stats (no pairs) and its deadline, with a
    callable that returns a list generating the same ideal.
    """
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    table = polys[0].table
    limits, stats = (limits or Limits()).start(), GBStats()

    def run(pk):
        def check(partial):
            limits.check(stats, lambda: pk.polys(table, partial()))
        return pk.polys(table, _interreduce(
            [pk.entry(pk.terms(p)) for p in polys], pk, check))
    return _packed(run, polys, table, order or grevlex())


def buchberger(system: PolySystem, limits: Limits | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the input ideal under the system's order.

    Deterministic for identical input: normal selection strategy (minimal
    lcm degree, then lexicographically smallest pair index), tie-broken by
    insertion order.  Limits are checked before each S-pair and before
    each polynomial an interreduction reduces, the closing one included.
    """
    limits = (limits or Limits()).start()
    return _packed(lambda pk: _buchberger(system, limits, pk),
                   system.gens, system.table, system.order)


# the bits of a pair key's index fields: 2**20 elements would make 2**39
# pairs, so no index outgrows them
_SLOT, _INDEX = 20, (1 << 20) - 1


def _buchberger(system: PolySystem, limits: Limits, pk: _Packing) -> GroebnerBasis:
    """One run of ``buchberger``, packed by ``pk`` from start to end."""
    table = system.table
    stats = GBStats()
    max_pairs = inf if limits.max_pairs is None else limits.max_pairs
    now, end = limits.clock, limits._end

    def check_limits(partial):  # two comparisons on locals; Limits raises
        if stats.pairs_considered > max_pairs or now() >= end:
            limits.check(stats, lambda: pk.polys(table, partial()))

    view = _interreduce([pk.entry(pk.terms(g)) for g in system.gens], pk,
                        check_limits)
    entries = list(view)
    guards, marks, ones, buckets = pk.guards, pk.marks, pk.ones, view.buckets
    field, top, unpack, sign = pk.field, pk.top, pk.unpack, 8 * pk.width - 1
    leads = [e[1] for e in entries]
    degs = [sum(unpack(m)) for m in leads]
    # the guard bit of each field where the lead is nonzero: leads whose
    # supports are disjoint are coprime, and their lcm is their product
    supports = [((m | guards) - ones) & guards for m in leads]

    def keys(j):  # of the pairs (i, j), i < j
        a, deg, support, low = leads[j], degs[j], supports[j], j << 1
        for i in range(j):
            d, coprime = degs[i] + deg, not supports[i] & support
            if not coprime:
                b = leads[i]
                ge = ((a | guards) - b) & guards  # guard set where a >= b
                lcm = b ^ ((a ^ b) & (ge - (ge >> sign)))
                # no prefix sum carries below the field limit, so the word
                # times ones holds the degree in its top field
                d = (lcm * ones >> top) & field if d <= field else sum(unpack(lcm))
            yield (d << 2 * _SLOT | i << _SLOT) << 1 | low | coprime

    heap = [key for j in range(len(entries)) for key in keys(j)]
    heapq.heapify(heap)
    # done[i]: the lead of each k whose pair with i is treated (leads are distinct)
    done = [set() for _ in entries]
    so_far = entries.copy  # the partial basis, should a limit be hit

    while heap:
        stats.pairs_considered += 1
        if stats.pairs_considered > max_pairs or now() >= end:
            limits.check(stats, lambda: pk.polys(table, so_far()))
        key = heapq.heappop(heap)
        i, j = key >> _SLOT + 1 & _INDEX, key >> 1 & _INDEX
        a, b = leads[i], leads[j]
        done_i, done_j = done[i], done[j]
        # product criterion: coprime leading monomials
        skipped = key & 1
        if not skipped:
            ge = ((a | guards) - b) & guards
            lcm = b ^ ((a ^ b) & (ge - (ge >> sign)))
            if done_i and done_j:
                # chain criterion (conservative: both companion pairs fully
                # treated), on the entries in the lcm's buckets
                probe = lcm | marks
                present = (probe - ones) & view.occupied
                while present and not skipped:
                    bit = present & -present
                    present ^= bit
                    for e in buckets[bit]:
                        if ((probe - e[1]) & guards == guards
                                and e[1] in done_i and e[1] in done_j):
                            skipped = True
                            break
        done_i.add(b)
        done_j.add(a)
        if skipped:
            continue
        lcm = pk.monomial(lcm, key >> 2 * _SLOT + 1)
        r = _reduce(_s_terms(pk, entries[i], entries[j], lcm), view, pk)
        stats.pairs_reduced += 1
        if not r:
            stats.zero_reductions += 1
            continue
        # r is reduced against the view, so its leading monomial is new
        entry = pk.entry(r, monic=True)
        entries.append(entry)
        leads.append(entry[1])
        degs.append(sum(unpack(entry[1])))
        supports.append(((entry[1] | guards) - ones) & guards)
        done.append(set())
        view.insort(entry)
        for key in keys(len(entries) - 1):
            heapq.heappush(heap, key)

    basis = pk.polys(table, _interreduce(entries, pk, check_limits))
    stats.basis_size = len(basis)
    return GroebnerBasis(system, tuple(basis), True, stats)


def ideal_member(p: MultiPoly, gb: GroebnerBasis) -> bool:
    """True iff p lies in the ideal (zero normal form against the basis)."""
    return gb.contains(p)


def eliminate(system: PolySystem, keep: Iterable[str],
              limits: Limits | None = None) -> PolySystem:
    """Generators of the elimination ideal keeping only ``keep`` variables.

    Computed with a block elimination order (dropped variables above kept
    ones) and filtering of the resulting basis.
    """
    keep = list(keep)
    for name in keep:
        if name not in system.table.index:
            raise ValueError(f"unknown variable {name!r}")
    keep_set = set(keep)
    dropped = [v for v in system.table.names if v not in keep_set]
    kept = [v for v in system.table.names if v in keep_set]
    if not dropped:
        return system
    perm_table = VarTable(dropped + kept)
    reordered = PolySystem(
        perm_table,
        tuple(g.retable(perm_table) for g in system.gens),
        elimination(len(dropped)),
    )
    gb = buchberger(reordered, limits)
    kept_table = VarTable(kept)
    kept_gens = [g.retable(kept_table) for g in gb.basis
                 if g.variables() <= keep_set]
    return PolySystem(kept_table, tuple(kept_gens), grevlex())
