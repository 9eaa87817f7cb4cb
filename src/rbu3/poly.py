"""Multivariate polynomials over exact rationals.

Polynomials are the coefficient ring for every symbolic computation in this
package: unknown operator coefficients, automorphism parameters, and the
generators handed to the Groebner engine all live here.

Representation: a shared :class:`VarTable` fixes the variables and their
order; a monomial is a dense tuple of non-negative exponents (one slot per
variable); a polynomial is a dict mapping monomials to nonzero ``Fraction``
coefficients.  Values are immutable by convention: no operation mutates its
operands, and equal polynomials have identical term maps.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import add, neg
from typing import Iterable, Mapping

__all__ = [
    "VarTable",
    "Monomial",
    "MonomialOrder",
    "MultiPoly",
    "ParseError",
    "grevlex",
    "lex",
    "elimination",
    "add_terms",
    "as_fraction",
    "as_int",
    "distinct_monic",
    "format_terms",
    "parse_terms",
    "parse_poly",
    "read_json",
    "write_json",
]

Monomial = tuple  # exponent vector, one entry per variable in the table


class ParseError(ValueError):
    """Raised on malformed polynomial or matrix literals; carries a position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


def as_fraction(value) -> Fraction:
    """``value`` (an int, a ``Fraction`` or a string such as ``"-3/4"``) as
    an exact rational, the one reader of the rationals a caller gives: a
    float or a bool raises ``TypeError``, a zero denominator ``ValueError``."""
    if isinstance(value, Fraction):
        return value
    if not isinstance(value, (int, str)) or isinstance(value, bool):
        raise TypeError(f"cannot interpret {value!r} as an exact rational")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ValueError(f"{value!r} has a zero denominator") from None


class VarTable:
    """An ordered list of distinct variable names.

    Variable identity is the index into the table, and the table order is the
    variable order used by every monomial comparison.
    """

    __slots__ = ("names", "index")

    def __init__(self, names: Iterable[str]):
        names = tuple(names)
        if len(set(names)) != len(names):
            raise ValueError("variable names must be distinct")
        for name in names:
            if not name or not (name[0].isalpha() or name[0] == "_"):
                raise ValueError(f"invalid variable name {name!r}")
        self.names = names
        self.index = {name: i for i, name in enumerate(names)}

    def __len__(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        return isinstance(other, VarTable) and self.names == other.names

    def __hash__(self) -> int:
        return hash(self.names)

    def __repr__(self) -> str:
        return f"VarTable({list(self.names)!r})"

    def var(self, name: str) -> "MultiPoly":
        """The variable `name` as a polynomial."""
        i = self.index.get(name)
        if i is None:
            raise KeyError(f"unknown variable {name!r}")
        mono = tuple(1 if j == i else 0 for j in range(len(self.names)))
        return MultiPoly(self, {mono: Fraction(1)})

    def parse(self, text: str) -> "MultiPoly":
        return parse_poly(text, self)


def mono_mul(a: Monomial, b: Monomial) -> Monomial:
    return tuple(map(add, a, b))


def mono_divides(a: Monomial, b: Monomial) -> bool:
    return all(x <= y for x, y in zip(a, b))


def as_int(c):
    """``c`` as an ``int`` when it is integral, else ``c`` itself: int
    products are far cheaper than ``Fraction`` ones, at the same value."""
    return c.numerator if c.denominator == 1 else c


def add_terms(terms: dict, items) -> dict:
    """Add ``(monomial, coefficient)`` items into ``terms`` in place.

    A sum that cancels removes its monomial, so a later item brings it back
    last: the term order of a sum is the order in which monomials appear.
    """
    for mono, coeff in items:
        acc = terms.get(mono)
        if acc is None:
            terms[mono] = coeff
        else:
            acc = acc + coeff
            if acc:
                terms[mono] = acc
            else:
                del terms[mono]
    return terms


@dataclass(frozen=True)
class MonomialOrder:
    """A monomial order: total, a well-order, compatible with multiplication.

    ``kind`` is one of ``lex``, ``grevlex``, or ``elim``; for ``elim`` the
    first ``block`` variables are ordered strictly above the rest (each block
    compared by grevlex), which is the order used for elimination ideals.
    """

    kind: str
    block: int = 0

    def __post_init__(self):
        if self.kind not in ("lex", "grevlex", "elim"):
            raise ValueError(f"unknown monomial order {self.kind!r}")
        if self.kind == "elim" and self.block <= 0:
            raise ValueError("elimination order needs a positive block size")

    def key(self, mono: Monomial):
        """Sort key: larger key = larger monomial."""
        if self.kind == "lex":
            return mono
        if self.kind == "grevlex":
            return (sum(mono), tuple(map(neg, reversed(mono))))
        head, tail = mono[: self.block], mono[self.block:]
        return (
            sum(head),
            tuple(map(neg, reversed(head))),
            sum(tail),
            tuple(map(neg, reversed(tail))),
        )

    def to_json(self):
        if self.kind == "elim":
            return {"elim": self.block}
        return self.kind

    @staticmethod
    def from_json(data) -> "MonomialOrder":
        if isinstance(data, str):
            return MonomialOrder(data)
        # ``type() is int`` refuses a bool block size, which isinstance lets by
        if isinstance(data, dict) and type(data.get("elim")) is int:
            return MonomialOrder("elim", data["elim"])
        raise ValueError(f"bad monomial order spec {data!r}")


def lex() -> MonomialOrder:
    return MonomialOrder("lex")


def grevlex() -> MonomialOrder:
    return MonomialOrder("grevlex")


def elimination(block: int) -> MonomialOrder:
    return MonomialOrder("elim", block)


class MultiPoly:
    """A multivariate polynomial with exact rational coefficients.

    Scalars (``int``/``Fraction``) mix freely with polynomials in ring
    operations; two polynomials must share their :class:`VarTable`.
    """

    __slots__ = ("table", "terms")

    def __init__(self, table: VarTable, terms: Mapping[Monomial, Fraction]):
        clean = {}
        width = len(table)
        for mono, coeff in terms.items():
            if coeff := as_fraction(coeff):
                if len(mono) != width:
                    raise ValueError("monomial width does not match the table")
                clean[mono] = coeff
        self.table = table
        self.terms = clean

    # -- construction ----------------------------------------------------

    @staticmethod
    def _of(table: VarTable, terms: dict) -> "MultiPoly":
        """A result of the ring's own operations, whose term map is canonical
        by construction: nothing is checked or copied."""
        result = MultiPoly.__new__(MultiPoly)
        result.table = table
        result.terms = terms
        return result

    @staticmethod
    def const(table: VarTable, value) -> "MultiPoly":
        value = as_fraction(value)
        if not value:
            return MultiPoly(table, {})
        return MultiPoly(table, {(0,) * len(table): value})

    # -- basic structure -------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def is_zero(self) -> bool:
        """True iff the canonical term map is empty."""
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(m) for m in self.terms)

    def constant_value(self) -> Fraction:
        if not self.terms:
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return next(iter(self.terms.values()))

    def total_degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(m) for m in self.terms)

    def variables(self) -> set:
        """Names of variables that actually occur."""
        seen = set()
        for mono in self.terms:
            for i, e in enumerate(mono):
                if e:
                    seen.add(self.table.names[i])
        return seen

    def __eq__(self, other) -> bool:
        if isinstance(other, MultiPoly):
            return self.table == other.table and self.terms == other.terms
        if isinstance(other, (int, Fraction)):
            other = as_fraction(other)
            if not other:
                return not self.terms
            return self.is_constant() and self.constant_value() == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.table.names, frozenset(self.terms.items())))

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, MultiPoly):
            if other.table != self.table:
                raise ValueError("incompatible operands: different variable tables")
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(self.table, other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._of(self.table,
                             add_terms(dict(self.terms), other.terms.items()))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._of(self.table, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            other = as_fraction(other)
            if not other:
                return MultiPoly(self.table, {})
            return MultiPoly._of(self.table,
                                 {m: c * other for m, c in self.terms.items()})
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return MultiPoly._of(self.table, add_terms({}, (
            (mono_mul(m1, m2), c1 * c2) for m1, c1 in self.terms.items()
            for m2, c2 in other.terms.items())))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a non-negative integer")
        result = MultiPoly.const(self.table, 1)
        base = self
        e = exponent
        while True:
            if e & 1:
                result = result * base
            e >>= 1
            if not e:
                return result
            base = base * base

    # -- substitution ----------------------------------------------------

    def substitute(self, bindings: Mapping[str, object],
                   table: VarTable | None = None) -> "MultiPoly":
        """Ring-homomorphic substitution.

        ``bindings`` maps variable names to replacement values (polynomials
        over ``table``, or exact scalars).  Variables without a binding must
        exist in the target table and map to themselves.  Binding a name not
        present in this polynomial's table is an error.

        One pass over the terms: a scalar binding folds into the coefficient
        as a ``Fraction`` power, an unbound variable moves its exponent to
        its slot in the target table, and only a polynomial binding is
        multiplied out as a ``MultiPoly`` (in variable order, after the
        monomial the rest of the term gives).
        """
        for name in bindings:
            if name not in self.table.index:
                raise ValueError(f"unknown variable {name!r} in bindings")
        target = table if table is not None else self.table
        # per source slot: a Fraction, a MultiPoly, or the target slot (int);
        # None marks a variable the target table lacks
        slots = []
        for name in self.table.names:
            if name not in bindings:
                slots.append(target.index.get(name))
                continue
            value = bindings[name]
            if isinstance(value, MultiPoly):
                if value.table != target:
                    raise ValueError(
                        f"binding for {name!r} is not over the target table")
            else:
                value = as_fraction(value)
            slots.append(value)
        width = len(target)

        def substituted():
            for mono, coeff in self.terms.items():
                out = [0] * width
                factors = []
                for i, e in enumerate(mono):
                    if not e:
                        continue
                    value = slots[i]
                    if type(value) is int:
                        out[value] += e
                    elif isinstance(value, Fraction):
                        coeff = coeff * value**e
                    elif value is None:
                        raise ValueError(f"variable {self.table.names[i]!r} "
                                         "missing from the target table")
                    else:
                        factors.append(value**e)
                if not coeff:
                    continue
                term = {tuple(out): coeff}
                for factor in factors:
                    term = (MultiPoly(target, term) * factor).terms
                yield from term.items()

        return MultiPoly._of(target, add_terms({}, substituted()))

    def retable(self, table: VarTable) -> "MultiPoly":
        """Re-express over `table` (which must contain every occurring name):
        a pure exponent remap."""
        return self.substitute({}, table)

    # -- printing --------------------------------------------------------

    def term_texts(self, order: MonomialOrder | None = None):
        """Yield ``(coefficient, monomial text)`` per term, largest first.

        The order defaults to grevlex; the monomial text of the constant
        term is empty.
        """
        order = order or grevlex()
        names = self.table.names
        for mono in sorted(self.terms, key=order.key, reverse=True):
            yield self.terms[mono], "*".join(
                names[i] if e == 1 else f"{names[i]}^{e}"
                for i, e in enumerate(mono) if e)

    def to_str(self, order: MonomialOrder | None = None) -> str:
        return format_terms(self.term_texts(order))

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"MultiPoly({self.to_str()!r})"


def distinct_monic(table: VarTable, entries) -> tuple:
    """The distinct polynomials among ``entries`` up to a nonzero scalar, in
    first appearance, each made monic.  An entry is a list of ``(monomial,
    int)`` pairs with its leading term first; divided by the gcd of its
    coefficients, signed as its lead, it is the primitive form that dedupes
    it, and only the distinct forms are built."""
    forms = {}
    for entry in entries:
        g = gcd(0, *(c for _, c in entry))
        g = g if entry[0][1] > 0 else -g
        forms[tuple((m, c // g) for m, c in entry)] = None
    return tuple(MultiPoly._of(table, {m: Fraction(c, form[0][1]) for m, c in form})
                 for form in forms)


def format_terms(pieces) -> str:
    """Join ``(coefficient, text)`` pieces into a sum-of-terms literal.

    Each piece prints as ``text`` when its coefficient is 1 or -1, as
    ``|c|*text`` otherwise, and as ``|c|`` when its text is empty; the signs
    become the ``+``/``-`` between terms.  No pieces print as ``0``.
    """
    out = []
    for coeff, text in pieces:
        mag = abs(coeff)
        if not text:
            text = str(mag)
        elif mag != 1:
            text = f"{mag}*{text}"
        if out:
            out.append(" - " if coeff < 0 else " + ")
        elif coeff < 0:
            out.append("-")
        out.append(text)
    return "".join(out) or "0"


# -- parsing ---------------------------------------------------------------

_NUM_CHARS = set("0123456789")


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in "+-*^":
            tokens.append((ch, ch, i))
            i += 1
            continue
        if ch in _NUM_CHARS:
            j = i
            while j < n and text[j] in _NUM_CHARS:
                j += 1
            if j < n and text[j] == "/":
                k = j + 1
                while k < n and text[k] in _NUM_CHARS:
                    k += 1
                if k == j + 1 or not int(text[j + 1:k]):
                    raise ParseError("expected a nonzero denominator after '/'",
                                     j + 1)
                tokens.append(("num", Fraction(int(text[i:j]), int(text[j + 1:k])), i))
                i = k
            else:
                tokens.append(("num", Fraction(int(text[i:j])), i))
                i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(("name", text[i:j], i))
            i = j
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    return tokens


def parse_terms(text: str) -> list:
    """Split a sum-of-terms literal into its terms.

    A term is factors joined by ``*``; a factor is an integer or fraction
    literal, or a name with an optional ``^k`` (k a non-negative integer).
    Terms are separated by ``+`` or ``-`` (a run of signs multiplies out),
    and the first term may carry a sign.  Returns one ``(coefficient,
    [(name, exponent, position)], position)`` per term: the product of its
    sign and numeric factors, its named factors in order, and where it
    starts.  The meaning of the names is left to the caller.
    """
    tokens = _tokenize(text)
    terms = []
    pos, count = 0, len(tokens)
    while pos < count:
        start = pos
        sign = Fraction(1)
        while pos < count and tokens[pos][0] in "+-":
            if tokens[pos][0] == "-":
                sign = -sign
            pos += 1
        if pos >= count:
            raise ParseError("dangling sign", tokens[-1][2])
        if terms and pos == start:
            raise ParseError("expected '+' or '-' between terms", tokens[pos][2])
        if tokens[pos][0] not in ("num", "name"):
            raise ParseError("expected a term", tokens[pos][2])
        coeff, names, term_at = sign, [], tokens[pos][2]
        expect_factor = True
        while pos < count and expect_factor:
            kind, value, at = tokens[pos]
            pos += 1
            if kind == "num":
                coeff *= value
            elif kind == "name":
                exp = 1
                if pos < count and tokens[pos][0] == "^":
                    if pos + 1 >= count or tokens[pos + 1][0] != "num":
                        raise ParseError("expected exponent after '^'", at)
                    exp_val = tokens[pos + 1][1]
                    if exp_val.denominator != 1 or exp_val < 0:
                        raise ParseError("exponent must be a non-negative integer",
                                         tokens[pos + 1][2])
                    exp = int(exp_val)
                    pos += 2
                names.append((value, exp, at))
            else:
                raise ParseError("expected a factor after '*'", at)
            expect_factor = pos < count and tokens[pos][0] == "*"
            if expect_factor:
                pos += 1
        if expect_factor:
            raise ParseError("dangling '*'", tokens[-1][2])
        terms.append((coeff, names, term_at))
    return terms


def parse_poly(text: str, table: VarTable) -> MultiPoly:
    """Parse the polynomial grammar ``coef*var1^k1*var2^k2 +/- ...``.

    Coefficients are integer or fraction literals; ``+``/``-`` separate
    terms.  Printing and parsing round-trip exactly.
    """
    terms = parse_terms(text)
    if not terms:
        raise ParseError("empty polynomial", 0)
    items = []
    for coeff, names, _ in terms:
        mono = [0] * len(table)
        for name, exp, at in names:
            idx = table.index.get(name)
            if idx is None:
                raise ParseError(f"unknown variable {name!r}", at)
            mono[idx] += exp
        if coeff:
            items.append((tuple(mono), coeff))
    return MultiPoly._of(table, add_terms({}, items))


# -- the JSON file format --------------------------------------------------


def write_json(path, data) -> None:
    """Write ``data`` as JSON with sorted keys, a 2-space indent and a final
    newline, to the file ``path``, or to standard output when ``path`` is
    ``"-"``.  Every report and data file this package writes goes here."""
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def strings(values) -> bool:
    """Whether every value read from a JSON file is a string."""
    return all(type(s) is str for s in values)


def check_fields(kind: str, data: dict, checks) -> None:
    """Refuse a field of the wrong JSON type: at the first failed ``(field,
    ok)`` of ``checks``, raise ``ValueError("bad <kind> <field> <value>")``."""
    for key, ok in checks:
        if not ok:
            raise ValueError(f"bad {kind} {key} {data[key]!r}")


def read_json(path, *keys) -> dict:
    """Read the JSON object in ``path``, which must have each of ``keys``:
    a file of another kind, or a float anywhere in it, is refused with a
    ``ValueError`` (rationals are written as strings)."""
    def refuse(text):
        raise ValueError(f"{path}: {text} is a float; write it as a string")
    with open(path) as fh:
        data = json.load(fh, parse_float=refuse)
    if not isinstance(data, dict):
        raise ValueError(f"{path}: not a JSON object")
    missing = [key for key in keys if key not in data]
    if missing:
        raise ValueError(f"{path}: not the expected kind of file "
                         f"(no {', '.join(map(repr, missing))})")
    return data
