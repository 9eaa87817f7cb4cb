"""Linear operators on U_n and the weight-lambda Rota-Baxter identity.

An operator is stored by its images of the canonical basis (equivalently a
d-by-d coefficient array, d = n(n+1)/2, in the basis order e11 < e12 < ... <
enn).  Entries are exact rationals or polynomials in named parameters, so
whole parametric families are single values and "the identity holds" means
"holds identically in the parameters".

The residual of an operator R of weight lambda is the table, over ordered
basis pairs (u, v), of

    R(u) R(v) - R( R(u) v + u R(v) + lambda u v ).

Bilinearity makes the identity on basis pairs equivalent to the identity on
the whole algebra, so R is Rota-Baxter iff every residual cell vanishes.  The
table is a quadratic form in the entries of R and lambda, built once per n
and evaluated over the nonzero entries of R only; ``rb_residual`` keeps the
nonzero entries of the table only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from itertools import groupby
from math import lcm
from typing import Mapping, Sequence

from .matrices import (BasisIndex, UTMatrix, basis_indices, basis_name, combine,
                       generic_rank, name_to_index, parse_matrix, rref,
                       solve_exact, vanishing_power)
from .poly import (MultiPoly, VarTable, as_fraction, check_fields,
                   distinct_monic, grevlex, read_json, strings)
from .groebner import PolySystem

__all__ = [
    "Operator",
    "RBResidual",
    "Ansatz",
    "AnsatzSolution",
    "ContradictoryAnsatz",
    "Lemma3Report",
    "rb_residual",
    "failure_json",
    "scale_operator",
    "generate_system",
    "bvar_name",
    "check_lemma3",
]


class ContradictoryAnsatz(ValueError):
    pass


class Operator:
    """A linear endomorphism of U_n, stored column-by-column.

    ``columns[b]`` is the image of basis element ``b``; missing keys mean the
    zero image.  ``weight`` is the lambda the operator is checked against.
    """

    __slots__ = ("n", "columns", "weight")

    def __init__(self, n: int, columns: Mapping[BasisIndex, UTMatrix] | None = None,
                 weight=Fraction(0)):
        if n < 1:
            raise ValueError("algebra size must be at least 1")
        self.n = n
        try:
            self.weight = as_fraction(weight)
        except TypeError:
            raise TypeError(f"weight {weight!r} is not exact: "
                            "use int, str or Fraction") from None
        cols = {}
        if columns:
            valid = set(basis_indices(n))
            for idx, image in columns.items():
                if idx not in valid:
                    raise ValueError(f"bad basis index {idx!r}")
                if image.n != n:
                    raise ValueError("image size mismatch")
                if not image.is_zero():
                    cols[idx] = image
        self.columns = cols

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_images(images: Mapping[str, str], n: int = 3,
                    params: Sequence[str] = (), weight=Fraction(0)) -> "Operator":
        """Build from {basis name: matrix literal} with optional parameters."""
        table = VarTable(params) if params else None
        cols = {}
        for name, text in images.items():
            idx = name_to_index(name, n)
            cols[idx] = parse_matrix(text, n, table)
        return Operator(n, cols, weight)

    # -- linear action -------------------------------------------------------

    def image(self, idx: BasisIndex) -> UTMatrix:
        return self.columns.get(idx, UTMatrix.zero(self.n))

    def apply(self, x: UTMatrix) -> UTMatrix:
        """Matrix-vector product in the canonical basis."""
        if x.n != self.n:
            raise ValueError("incompatible operands")
        return combine(self.columns, x.entries, self.n)

    def compose(self, other: "Operator") -> "Operator":
        """self after other."""
        if self.n != other.n:
            raise ValueError("incompatible operands")
        return Operator(self.n,
                        {idx: self.apply(other.image(idx))
                         for idx in basis_indices(self.n)},
                        self.weight)

    def is_zero(self) -> bool:
        return not self.columns

    def power_vanish_index(self, cap: int = 10):
        """Least k with R^k = 0 (identically), or None if no k <= cap works;
        a nilpotent R has R^d = 0 (d the dimension), so k <= min(cap, d)."""
        return vanishing_power(self, lambda power: power.compose(self),
                               min(cap, len(basis_indices(self.n))))

    def unit_image(self) -> UTMatrix:
        """R(1), the image of the identity matrix."""
        return self.apply(UTMatrix.unit(self.n))

    def coefficient_rows(self) -> list:
        """The d-by-d coefficient array; row order = column order = basis order."""
        idxs = basis_indices(self.n)
        cols = [self.image(idx).to_vector() for idx in idxs]
        return [[cols[j][i] for j in range(len(idxs))] for i in range(len(idxs))]

    def image_dimension(self) -> int:
        """Generic rank of the coefficient array (rank over the fraction field)."""
        return generic_rank(self.coefficient_rows())

    def __eq__(self, other) -> bool:
        if not isinstance(other, Operator):
            return NotImplemented
        return (self.n == other.n and self.weight == other.weight
                and self.columns == other.columns)

    def params(self) -> tuple:
        return tuple(dict.fromkeys(
            name for image in self.columns.values()
            for value in image.entries.values() if isinstance(value, MultiPoly)
            for name in value.table.names))

    def substitute_params(self, values: Mapping[str, Fraction]) -> "Operator":
        """Specialize every polynomial entry at the given parameter values."""
        cols = {}
        for idx, image in self.columns.items():
            entries = {}
            for key, value in image.entries.items():
                if isinstance(value, MultiPoly):
                    bound = {name: values[name] for name in value.table.names}
                    value = value.substitute(bound, VarTable(())).constant_value()
                entries[key] = value
            cols[idx] = UTMatrix(self.n, entries)
        return Operator(self.n, cols, self.weight)

    # -- io -------------------------------------------------------------------

    def to_json(self) -> dict:
        images = {}
        for idx in basis_indices(self.n):
            image = self.columns.get(idx)
            if image is not None:
                images[basis_name(idx)] = image.to_str()
        return {
            "schema": 1,
            "n": self.n,
            "weight": str(self.weight),
            "params": list(self.params()),
            "images": images,
        }

    @staticmethod
    def from_json(data: dict) -> "Operator":
        """A field of the wrong JSON type raises ValueError, a float weight TypeError."""
        n, weight = data.get("n", 3), data.get("weight", "0")
        params, images = data.get("params", []), data.get("images", {})
        check_fields("operator", data, (
            ("n", type(n) is int), ("weight", type(weight) in (int, float, str)),
            ("params", type(params) is list and strings(params)),
            ("images", type(images) is dict and strings(images.values()))))
        return Operator.from_images(images, n, params, weight)

    @staticmethod
    def load(path) -> "Operator":
        return Operator.from_json(read_json(path, "images"))

    def __repr__(self) -> str:
        parts = ", ".join(f"{basis_name(idx)} -> {self.columns[idx]}"
                          for idx in basis_indices(self.n) if idx in self.columns)
        return f"Operator({parts or '0'})"


@dataclass
class RBResidual:
    """The nonzero residual entries of an operator.

    ``entries`` maps ``((u, v), position)`` to the nonzero coefficient at
    ``position`` of the residual of the basis pair (u, v), ordered by pair
    and by position within a pair, both in basis order.  R is Rota-Baxter
    iff there is none.
    """

    weight: Fraction
    entries: dict

    def is_zero(self) -> bool:
        return not self.entries

    def first_nonzero(self):
        """((u, v), position, value) of the first nonzero entry, or None."""
        return next(((pair, pos, value) for (pair, pos), value
                     in self.entries.items()), None)


def failure_json(failure) -> dict:
    """A residual's first failure ``((u, v), position, value)`` as JSON."""
    (u, v), pos, value = failure
    return {"pair": [basis_name(u), basis_name(v)], "position": basis_name(pos),
            "value": str(value)}


@cache
def _residual_form(n: int) -> tuple:
    """The residual as a quadratic form in the entries of R and lambda.

    Slot ``slot[s, p]`` = s d + p is coordinate p of R(s) and slot d^2 is
    lambda (d = n(n+1)/2, basis order); target (u d + v) d + q is position q
    of cell ``pairs[u d + v]`` = (u, v).  ``quad[x][y]`` (x <= y) lists the
    targets of slot x times slot y: t for +1 and ~t for -1, |coefficient| times.
    """
    idxs = basis_indices(n)
    d = len(idxs)
    at = {idx: k for k, idx in enumerate(idxs)}
    form = {}  # (x, y) -> {target: merged coefficient}

    def add(x, y, t, c):
        row = form.setdefault((min(x, y), max(x, y)), {})
        row[t] = row.get(t, 0) + c

    for u, (a, b) in enumerate(idxs):
        for v, (c, e) in enumerate(idxs):
            cell = (u * d + v) * d  # products by e_ij e_kl = delta_jk e_il
            for (i, j) in idxs:  # + R(u) R(v)
                for l in range(j, n + 1):
                    add(u * d + at[i, j], v * d + at[j, l], cell + at[i, l], 1)
            for q in range(d):  # - R(R(u) v) - R(u R(v)) - lambda R(u v)
                for i in range(1, c + 1):
                    add(u * d + at[i, c], at[i, e] * d + q, cell + q, -1)
                for l in range(b, n + 1):
                    add(v * d + at[b, l], at[a, l] * d + q, cell + q, -1)
                if b == c:
                    add(at[a, e] * d + q, d * d, cell + q, -1)
    quad = [{} for _ in range(d * d + 1)]
    for (x, y), row in form.items():  # a cancelled coefficient lists nothing
        quad[x][y] = tuple(t if c > 0 else ~t for t, c in row.items()
                           for _ in range(abs(c)))
    pairs = [(u, v) for u in idxs for v in idxs]
    return {(s, p): at[s] * d + at[p] for s, p in pairs}, quad, pairs


def rb_residual(op: Operator) -> RBResidual:
    """The nonzero residual entries; exact, identically in parameters.

    It evaluates the quadratic form built once per n (``_residual_form``)
    over the pairs of nonzero entries only, each product made once.  It runs
    on the entries of D R (``_cleared``) and D lambda, and each residual
    entry is divided by D^2 at the end.  The sorted targets give the entries
    in ``RBResidual`` order.
    """
    idxs = basis_indices(op.n)
    d = len(idxs)
    _, _, pairs = _residual_form(op.n)
    terms, D = _cleared(op)
    terms += [(d * d, (op.weight * D).numerator)] if op.weight else []  # slot d^2
    entries = {}
    for t, value in sorted(_residual_values(op.n, sorted(terms)).items()):
        if value:
            cell, pos = divmod(t, d)
            entries[pairs[cell], idxs[pos]] = (
                (value * Fraction(1, D * D) if D != 1 else value)
                if isinstance(value, MultiPoly) else Fraction(value, D * D))
    return RBResidual(op.weight, entries)


def _cleared(op: Operator) -> tuple:
    """The entries of D R as ``(slot, value)`` pairs on the slots of
    ``_residual_form``, in the operator's entry order, and D, the lcm of the
    denominators of the rational entries and of the weight: rationals become
    ints, polynomial entries are scaled by D."""
    slot, _, _ = _residual_form(op.n)
    slots = [(slot[src, pos], x) for src, image in op.columns.items()
             for pos, x in image.entries.items()]
    # an int first, so the argument tuple is not resized onto a longer free list
    D = lcm(op.weight.denominator, *(
        x.denominator for _, x in slots if not isinstance(x, MultiPoly)))
    return [(x, v * D if D != 1 else v) if isinstance(v, MultiPoly)
            else (x, v.numerator * (D // v.denominator)) for x, v in slots], D


def _residual_values(n: int, terms) -> dict:
    """The residual form on sorted ``(slot, value)`` pairs: target -> value
    for each target a product reaches, a cancelled one at zero."""
    _, quad, _ = _residual_form(n)
    acc = {}
    for k, (x, rx) in enumerate(terms):
        row = quad[x]
        for y, ry in terms[k:]:
            targets = row.get(y)
            if targets:
                minus = -(plus := rx * ry)
                for t in targets:
                    term, t = (plus, t) if t >= 0 else (minus, ~t)
                    old = acc.get(t)
                    acc[t] = term if old is None else old + term
    return acc


def scale_operator(op: Operator, k) -> Operator:
    """Lemma-1 scaling: k != 0 gives the operator (1/k) R, again Rota-Baxter."""
    k = as_fraction(k)
    if not k:
        raise ValueError("scaling factor must be nonzero")
    if op.weight:
        raise ValueError("scaling preserves the identity only at weight zero")
    inv = Fraction(1) / k
    return Operator(op.n, {idx: img.scale(inv) for idx, img in op.columns.items()},
                    op.weight)


# -- symbolic system generation ----------------------------------------------


def bvar_name(src: BasisIndex, dst: BasisIndex) -> str:
    """Unknown-coefficient naming: b_<ij>_<kl> is the e_kl coordinate of R(e_ij)."""
    return f"b_{src[0]}{src[1]}_{dst[0]}{dst[1]}"


@dataclass
class Ansatz:
    """Linear shape constraints for a symbolic operator.

    ``constraints`` are linear polynomial strings over the ``b_ij_kl``
    unknowns (the ``e_kl`` coordinate of ``R(e_ij)``; constant terms
    allowed), each required to vanish.  The case presets' data files and
    ansatz files list them as such strings.
    """

    n: int = 3
    weight: Fraction = Fraction(0)
    constraints: list = field(default_factory=list)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("algebra size must be at least 1")
        try:
            self.weight = as_fraction(self.weight)
        except (TypeError, ValueError) as exc:
            raise type(exc)(f"weight {self.weight!r}: {exc}") from None

    def all_bvars(self) -> list:
        idxs = basis_indices(self.n)
        return [bvar_name(s, d) for s in idxs for d in idxs]


@dataclass
class AnsatzSolution:
    """The solved linear shape: every b-variable as a polynomial in the free ones.

    ``constraints`` holds the parsed constraints, each as its nonzero
    ``(column, coefficient)`` pairs over the b-variables in canonical order,
    the constant at column ``len(expressions)``.
    """

    n: int
    table: VarTable            # free variables, in canonical b-order
    expressions: dict          # b-name -> MultiPoly over `table`
    constraints: list
    _rings: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

    def expand(self, text: str, aliases: Mapping[str, str] | None = None) -> MultiPoly:
        """Parse `text` over b-variables (and aliases) into the free-variable ring.

        The table of b-variables and aliases, and the binding of each to its
        expression, are built on the first call with these aliases and kept.
        """
        key = tuple((aliases or {}).items())
        ring = self._rings.get(key)
        if ring is None:
            bindings = dict(self.expressions)
            bindings.update((alias, self.expressions[name]) for alias, name in key)
            ring = self._rings[key] = VarTable(tuple(bindings)), bindings
        ext, bindings = ring
        raw = ext.parse(text)
        return raw.substitute({name: bindings[name] for name in raw.variables()},
                              self.table)

    def satisfied_by(self, op: Operator) -> bool:
        """Whether the entries of ``op`` meet every constraint: each row's
        dot product with the entries, in b-variable order, and 1 vanishes."""
        idxs = basis_indices(self.n)
        values = [op.columns[src].entries.get(dst) if src in op.columns else None
                  for src in idxs for dst in idxs] + [1]
        return not any(sum(c * values[col] for col, c in row
                           if values[col] is not None)
                       for row in self.constraints)


def _solve_linear_constraints(ansatz: Ansatz):
    """Row-reduce the constraints.

    Returns the parsed constraints (as ``AnsatzSolution.constraints``), the
    table of free variables, and per b-variable in canonical order its value
    as an int linear form over the free ones: the nonzero ``(slot, int)``
    pairs, slot ``len(table)`` the constant, all over the one denominator
    ``D`` returned last, which also clears the weight's.
    """
    names = ansatz.all_bvars()
    width = len(names)
    table = VarTable(names)
    constraints, rows = [], []
    for text in ansatz.constraints:
        poly = table.parse(text)
        if poly.total_degree() > 1:
            raise ContradictoryAnsatz("constraints must be linear")
        if poly:
            constraints.append([(mono.index(1) if any(mono) else width, coeff)
                                for mono, coeff in poly.terms.items()])
            rows.append([0] * (width + 1))  # rref makes each a Fraction
            for col, coeff in constraints[-1]:
                rows[-1][col] = coeff
    # pivots chosen in canonical variable order; the constants ride along
    rows, pivot_cols = rref(rows, width)
    if any(row[-1] for row in rows[len(pivot_cols):]):
        raise ContradictoryAnsatz("contradictory ansatz")
    pivots = dict(zip(pivot_cols, rows))
    free_cols = [c for c in range(width) if c not in pivots]
    slot = {c: f for f, c in enumerate(free_cols)}
    slot[width] = len(free_cols)
    # a pivot variable is -(constant) - sum of the free columns: the other
    # pivot columns are zero in its row after RREF
    solved = {col: [(c, -row[c]) for c in (width, *free_cols) if row[c]]
              for col, row in pivots.items()}
    D = lcm(ansatz.weight.denominator,
            *(x.denominator for pairs in solved.values() for _, x in pairs))
    forms = [[(slot[c], x.numerator * (D // x.denominator)) for c, x in solved[col]]
             if col in solved else [(slot[col], D)] for col in range(width)]
    return constraints, VarTable(names[c] for c in free_cols), forms, D


@cache
def _quadratic_monomials(free: int) -> tuple:
    """The monomials of degree at most 2 in ``free`` unknowns, in descending
    grevlex order, and ``rank[i][j]``, the place in it of the product of
    slots i and j (slot ``free`` the constant 1)."""
    def mono(i, j):
        return tuple((i == k) + (j == k) for k in range(free))
    key = grevlex().key
    pairs = sorted(((i, j) for i in range(free + 1) for j in range(i, free + 1)),
                   key=lambda ij: key(mono(*ij)), reverse=True)
    at = {ij: r for r, ij in enumerate(pairs)}
    rank = [[at[min(i, j), max(i, j)] for j in range(free + 1)]
            for i in range(free + 1)]
    return rank, [mono(*ij) for ij in pairs]


def generate_system(ansatz: Ansatz) -> tuple:
    """Symbolic residual components under the ansatz, as a polynomial system.

    Returns ``(PolySystem, AnsatzSolution)``.  Generators are the distinct
    nonzero residual entries, made monic, in the residual's pair/position
    order; they are quadratic in the unknowns.

    Under the ansatz every entry of R, and lambda, is a linear form in the
    free unknowns, kept as int coefficients over one denominator D.  The
    residual's quadratic form (``_residual_form``, the one ``rb_residual``
    evaluates) is evaluated on those forms with int products, each residual
    entry a map from monomial rank (descending grevlex) to an int, so its
    leading term is its first: ``poly.distinct_monic`` dedupes the entries
    by their primitive int forms and makes only the distinct ones monic.
    """
    constraints, free_table, forms, D = _solve_linear_constraints(ansatz)
    n = ansatz.n
    idxs = basis_indices(n)
    d, free = len(idxs), len(free_table)
    rank, monos = _quadratic_monomials(free)
    expressions = {}
    for k, form in enumerate(forms):  # slot k is bvar k: src-major, basis order
        expressions[bvar_name(idxs[k // d], idxs[k % d])] = MultiPoly._of(
            free_table, {monos[rank[s][free]]: Fraction(c, D) for s, c in form})
    solution = AnsatzSolution(n, free_table, expressions, constraints)

    _, quad, _ = _residual_form(n)
    terms = [(x, form) for x, form in enumerate(forms) if form]
    if weight := ansatz.weight:  # slot d^2 is lambda, a constant form
        terms.append((d * d, [(free, weight.numerator * (D // weight.denominator))]))
    size = len(monos)
    acc = {}  # target * size + monomial rank -> int coefficient
    for k, (x, fx) in enumerate(terms):
        row = quad[x]
        for y, fy in terms[k:]:
            targets = row.get(y)
            if not targets:
                continue
            product = {}
            for i, a in fx:
                ranks = rank[i]
                for j, b in fy:
                    r = ranks[j]
                    product[r] = product.get(r, 0) + a * b
            plus = list(product.items())
            minus = [(r, -c) for r, c in plus]
            for t in targets:
                items, base = (plus, t * size) if t >= 0 else (minus, ~t * size)
                for r, c in items:
                    acc[base + r] = acc.get(base + r, 0) + c
    # a nonzero constant component means no specialization satisfies
    # the identity: the system degenerates to the unit ideal
    entries = ([(monos[key % size], c) for key, c in entry] for _, entry in groupby(
        sorted(item for item in acc.items() if item[1]),
        key=lambda item: item[0] // size))
    return PolySystem(free_table, distinct_monic(free_table, entries),
                      grevlex()), solution


# -- unital-algebra checks -----------------------------------------------------


@dataclass
class Lemma3Report:
    unit_not_in_image: bool
    kernel_contains_image: bool | None  # None when R(1) != 0, so no claim
    unit_power_identity: bool


def unit_in_image(op: Operator):
    """Decide whether the identity matrix lies in Im(R).

    Each image splits into one rational vector per parameter monomial (a
    rational image is one such vector), and the answer is whether the unit
    lies in the rational span of those vectors.  For a rational operator
    that is exact solvability of R x = 1.  For polynomial entries, False
    comes with a rational functional certificate valid for every parameter
    value, and True is conservative.
    """
    idxs = basis_indices(op.n)
    chunks = []
    for idx in idxs:
        pieces = {}
        for pos, value in op.image(idx).entries.items():
            if isinstance(value, MultiPoly):
                for mono, coeff in value.terms.items():
                    pieces.setdefault(mono, {})[pos] = coeff
            else:
                pieces.setdefault(("const",), {})[pos] = value
        chunks.extend(pieces.values())
    # the chunks are the columns of R: is R x = 1 solvable?
    matrix = [[chunk.get(p, 0) for chunk in chunks] for p in idxs]
    return solve_exact(matrix, UTMatrix.unit(op.n).to_vector()) is not None


_MAX_POWER = 3  # the powers m that check (c) of check_lemma3 compares


def check_lemma3(op: Operator) -> Lemma3Report:
    """The three unital-algebra checks for a weight-zero operator.

    (a) the unit is not in the image; (b) when R(1) = 0, the image sits in
    the kernel and R^2 = 0; (c) R(1)^m = m! R^m(1) for m = 1.._MAX_POWER.
    """
    a_ok = not unit_in_image(op)
    r1 = op.unit_image()
    b_ok = op.compose(op).is_zero() if r1.is_zero() else None
    c_ok = True
    factorial = 1
    power = UTMatrix.unit(op.n)
    iterate = UTMatrix.unit(op.n)
    for m in range(1, _MAX_POWER + 1):
        factorial *= m
        power = power * r1 if m > 1 else r1
        iterate = op.apply(iterate)
        if power != iterate.scale(Fraction(factorial)):
            c_ok = False
            break
    return Lemma3Report(a_ok, b_ok, c_ok)
