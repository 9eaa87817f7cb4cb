"""Buchberger's algorithm, reduced Groebner bases, and ideal membership.

The engine is deliberately plain: normal pair selection (minimal lcm degree,
then smallest pair index), the product and chain criteria, full normal-form
reduction, and monic auto-reduced output.  Three implementation notes:

* Auto-reduction divides each element by the others' leading terms and
  their monomial multiples, pass after pass, and stops after the first pass
  in which no surviving leading monomial moved: every element is then
  reduced against the others.  This is more than Gaussian elimination on
  the coefficient rows (under grevlex ``[x^2 - y, x - 1]`` becomes
  ``[x - 1, y - 1]``), so linear elements substitute themselves into the
  rest.  The quadratic systems produced by the operator-coefficient
  ansatzes collapse dramatically under this cascade.  It is the engine's
  one interreduction: applied to a Groebner basis it gives the unique
  reduced basis, so ``buchberger`` ends with it.
* Whenever an S-polynomial reduces to something with a linear leading term,
  the run restarts on the auto-reduced basis (same ideal, far fewer
  variables in play).  Restarts are bounded by the variable count.
* Each polynomial's leading data (order key, leading monomial and
  coefficient, and a bitmask of the variables in the leading monomial) is
  computed once and kept in a divisor view sorted by key, descending;
  division takes terms from a heap, largest first, and tests the masks
  before the exact divisibility test.  This is safe because nothing the
  algorithm decides moves: the divisor is still the first match in stable
  descending lead order, and pairs are still chosen in the same order, so
  the counters and the bases are those of the plain loop.

Resource limits are explicit inputs; exceeding one raises
:class:`ResourceLimitExceeded` carrying the partial basis, never a wrong
answer.
"""

from __future__ import annotations

import heapq
import json
import time
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import itemgetter
from typing import Iterable, Sequence

from .poly import (MonomialOrder, MultiPoly, VarTable, grevlex,
                   elimination, mono_degree, mono_div, mono_divides,
                   mono_lcm, mono_mul, parse_poly)

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
    max_pairs: int | None = None
    deadline: float | None = None  # wall-clock seconds for this invocation


@dataclass
class GBStats:
    pairs_considered: int = 0
    pairs_reduced: int = 0
    zero_reductions: int = 0
    restarts: int = 0
    basis_size: int = 0

    def to_json(self):
        return {
            "pairs_considered": self.pairs_considered,
            "pairs_reduced": self.pairs_reduced,
            "zero_reductions": self.zero_reductions,
            "restarts": self.restarts,
            "basis_size": self.basis_size,
        }


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
        table = VarTable(data["vars"])
        order = MonomialOrder.from_json(data.get("order", "grevlex"))
        gens = tuple(parse_poly(t, table) for t in data["gens"])
        return PolySystem(table, gens, order)

    def save(self, path):
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @staticmethod
    def load(path) -> "PolySystem":
        with open(path) as fh:
            return PolySystem.from_json(json.load(fh))


@dataclass
class GroebnerBasis:
    system: PolySystem
    basis: tuple
    reduced: bool
    stats: GBStats

    @cached_property
    def _view(self) -> list:
        return _divisor_view(self.basis, self.system.order)

    def contains(self, p: MultiPoly) -> bool:
        """Zero normal form against the basis: proves membership for any
        basis, and decides it when the basis is a Groebner basis."""
        return _normal_form_view(p, self._view, self.system.order)[0].is_zero()

    def verify(self) -> bool:
        """Recheck the defining properties (generators and S-pairs reduce to 0)."""
        order = self.system.order
        basis = self.basis
        if not all(self.contains(g) for g in self.system.gens):
            return False
        if not all(self.contains(s_polynomial(f, g, order))
                   for i, f in enumerate(basis) for g in basis[i + 1:]):
            return False
        if self.reduced:
            for entry in self._view:
                _, _, lc, _, g = entry
                if lc != 1:
                    return False
                for mono in g.terms:
                    mask = _mask(mono)
                    if any(other is not entry and not other[3] & ~mask
                           and mono_divides(other[1], mono)
                           for other in self._view):
                        return False
        return True

    def to_json(self) -> dict:
        data = self.system.to_json()
        data["basis"] = [g.to_str(self.system.order) for g in self.basis]
        data["reduced"] = self.reduced
        data["stats"] = self.stats.to_json()
        return data


def s_polynomial(f: MultiPoly, g: MultiPoly, order: MonomialOrder) -> MultiPoly:
    """S(f,g) = (lcm/lt(f)) f - (lcm/lt(g)) g, built monically."""
    if f.is_zero() or g.is_zero():
        raise ValueError("S-polynomial of a zero polynomial")
    lm_f, lc_f = f.leading(order)
    lm_g, lc_g = g.leading(order)
    l = mono_lcm(lm_f, lm_g)
    left = MultiPoly(f.table, {mono_div(l, lm_f): Fraction(1) / lc_f}) * f
    right = MultiPoly(g.table, {mono_div(l, lm_g): Fraction(1) / lc_g}) * g
    return left - right


def _mask(mono) -> int:
    """Bit i set iff variable i occurs in ``mono``.

    ``a`` can divide ``b`` only if ``_mask(a) & ~_mask(b)`` is 0, which
    rules most candidate divisors out before the exact exponent test.
    """
    mask = 0
    for i, e in enumerate(mono):
        if e:
            mask |= 1 << i
    return mask


def _lead_entry(g: MultiPoly, order: MonomialOrder):
    """(order key, leading monomial, leading coefficient, mask, g)."""
    key = order.key
    lead_key, lm = max((key(m), m) for m in g.terms)
    return (lead_key, lm, g.terms[lm], _mask(lm), g)


_by_key = itemgetter(0)  # the order key of a lead entry


def _divisor_view(basis: Iterable[MultiPoly], order: MonomialOrder) -> list:
    """Lead entries of the nonzero elements, in stable descending key order."""
    entries = [_lead_entry(g, order) for g in basis if not g.is_zero()]
    entries.sort(key=_by_key, reverse=True)
    return entries


def _insert(view: list, entry) -> None:
    """Insert ``entry`` after every entry whose key is not smaller: where a
    stable descending sort of the basis with ``entry`` appended puts it."""
    lead_key = entry[0]
    lo, hi = 0, len(view)
    while lo < hi:
        mid = (lo + hi) // 2
        if view[mid][0] >= lead_key:
            lo = mid + 1
        else:
            hi = mid
    view.insert(lo, entry)


class _Term:
    """Heap item for a monomial; the largest monomial pops first."""

    __slots__ = ("key", "mono")

    def __init__(self, key, mono):
        self.key = key
        self.mono = mono

    def __lt__(self, other):
        return self.key > other.key


def _normal_form_view(p: MultiPoly, view, order: MonomialOrder):
    """Remainder of ``p`` by the divisor view, and its leading key.

    Terms leave a heap largest first.  A reduction step only adds terms
    below the one it removes, so each monomial enters the heap once; one
    that cancels stays there with coefficient 0 and is skipped when popped.
    The remainder's terms are stored largest first, so its first term is
    its leading term; the key is None when the remainder is zero.
    """
    key = order.key
    work = dict(p.terms)
    heap = [_Term(key(m), m) for m in work]
    heapq.heapify(heap)
    remainder = {}
    lead_key = None
    while heap:
        top = heapq.heappop(heap)
        mono = top.mono
        coeff = work.pop(mono)
        if not coeff:
            continue
        mono_mask = _mask(mono)
        for _, lm, lc, lead_mask, g in view:
            if not lead_mask & ~mono_mask and mono_divides(lm, mono):
                break
        else:
            if lead_key is None:
                lead_key = top.key
            remainder[mono] = coeff
            continue
        shift = mono_div(mono, lm)
        factor = coeff / lc
        for m2, c2 in g.terms.items():
            if m2 == lm:
                continue
            target = mono_mul(shift, m2)
            acc = work.get(target)
            if acc is None:
                work[target] = -factor * c2
                heapq.heappush(heap, _Term(key(target), target))
            else:
                work[target] = acc - factor * c2
    return MultiPoly(p.table, remainder), lead_key


def _monic_entry(r: MultiPoly, lead_key):
    """Lead entry of ``r`` made monic, for ``r`` from ``_normal_form_view``
    (its first term leads, and ``lead_key`` is that term's key)."""
    lm, lc = next(iter(r.terms.items()))
    if lc != 1:
        inv = Fraction(1) / lc
        r = MultiPoly(r.table, {m: c * inv for m, c in r.terms.items()})
    return (lead_key, lm, Fraction(1), _mask(lm), r)


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
    return _normal_form_view(p, _divisor_view(basis, order), order)[0]


def autoreduce(polys: Iterable[MultiPoly],
               order: MonomialOrder | None = None, _check=None) -> list:
    """Reduce a set against itself to a fixpoint; output is monic, sorted by
    leading monomial, descending.

    Each pass divides every element by the leading terms of the others
    (their monomial multiples included, so this is not Gaussian elimination
    on the coefficient rows) and drops zero remainders.  Whether a set is
    reduced depends only on its leading monomials, so the loop stops after
    the first pass in which no surviving element's leading monomial moved:
    each element was then divided by the others' final leads.  Applied to a
    set containing a Groebner basis, the result is the unique reduced basis.

    ``_check`` (private to ``buchberger``) is called before each polynomial
    is reduced, with a list that generates the same ideal; it raises to stop.
    """
    order = order or grevlex()
    current = [_lead_entry(p, order) for p in polys if not p.is_zero()]
    moved = True
    while moved:
        moved = False
        nxt = []
        for i, entry in enumerate(current):
            if _check is not None:
                _check([e[4] for e in nxt] + [e[4] for e in current[i:]])
            view = sorted(nxt + current[i + 1:], key=_by_key, reverse=True)
            r, lead_key = _normal_form_view(entry[4], view, order)
            if lead_key is None:
                continue
            reduced = _monic_entry(r, lead_key)
            moved = moved or reduced[1] != entry[1]
            nxt.append(reduced)
        current = nxt
    current.sort(key=_by_key, reverse=True)
    return [e[4] for e in current]


def buchberger(system: PolySystem, limits: Limits | None = None) -> GroebnerBasis:
    """Reduced Groebner basis of the input ideal under the system's order.

    Deterministic for identical input: normal selection strategy (minimal
    lcm degree, then lexicographically smallest pair index), tie-broken by
    insertion order.  Limits are checked before each S-pair and before
    each polynomial an autoreduce reduces, the closing one included.
    """
    limits = limits or Limits()
    order = system.order
    stats = GBStats()
    start = time.monotonic()

    def check_limits(partial):
        if limits.max_pairs is not None and stats.pairs_considered > limits.max_pairs:
            raise ResourceLimitExceeded(
                f"resource limit: more than {limits.max_pairs} pairs",
                list(partial), stats)
        if limits.deadline is not None and time.monotonic() - start > limits.deadline:
            raise ResourceLimitExceeded("resource limit: deadline exceeded",
                                        list(partial), stats)

    basis = autoreduce(system.gens, order, _check=check_limits)
    max_restarts = len(system.table) + 4

    while True:  # each iteration is one (re)start on an autoreduced basis
        entries = [_lead_entry(g, order) for g in basis]
        view = sorted(entries, key=_by_key, reverse=True)
        heap = []
        for j in range(len(basis)):
            for i in range(j):
                l = mono_lcm(entries[i][1], entries[j][1])
                heapq.heappush(heap, (mono_degree(l), i, j))
        completed = set()
        restart = False

        while heap:
            stats.pairs_considered += 1
            check_limits(basis)
            _, i, j = heapq.heappop(heap)
            _, lead_i, _, mask_i, _ = entries[i]
            _, lead_j, _, mask_j, _ = entries[j]
            l = mono_lcm(lead_i, lead_j)
            # product criterion: coprime leading monomials
            if l == mono_mul(lead_i, lead_j):
                completed.add((i, j))
                continue
            # chain criterion (conservative: both companion pairs fully treated)
            l_mask = mask_i | mask_j
            skipped = False
            for k, (_, lead_k, _, mask_k, _) in enumerate(entries):
                if k in (i, j) or mask_k & ~l_mask or not mono_divides(lead_k, l):
                    continue
                p1 = (min(i, k), max(i, k))
                p2 = (min(j, k), max(j, k))
                if p1 in completed and p2 in completed:
                    skipped = True
                    break
            if skipped:
                completed.add((i, j))
                continue
            s = s_polynomial(basis[i], basis[j], order)
            h, lead_key = _normal_form_view(s, view, order)
            stats.pairs_reduced += 1
            completed.add((i, j))
            if lead_key is None:
                stats.zero_reductions += 1
                continue
            # h is reduced against the view, so its leading monomial is new
            entry = _monic_entry(h, lead_key)
            h, lm_h = entry[4], entry[1]
            basis.append(h)
            entries.append(entry)
            _insert(view, entry)
            new_index = len(basis) - 1
            for k in range(new_index):
                l = mono_lcm(entries[k][1], lm_h)
                heapq.heappush(heap, (mono_degree(l), k, new_index))
            if h.total_degree() <= 1 and stats.restarts < max_restarts:
                stats.restarts += 1
                basis = autoreduce(basis, order, _check=check_limits)
                restart = True
                break
        if not restart:
            break

    basis = autoreduce(basis, order, _check=check_limits)
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
    kept_gens = []
    block = len(dropped)
    for g in gb.basis:
        if all(not any(m[:block]) for m in g.terms):
            kept_gens.append(g.retable(kept_table))
    return PolySystem(kept_table, tuple(kept_gens), grevlex())
