"""The algebra of n-by-n upper-triangular matrices over an exact ring.

Elements are stored sparsely: a map from basis indices ``(i, j)`` (1-based,
``i <= j``) to coefficients, with absent keys meaning zero.  Coefficients are
either ``Fraction`` scalars or :class:`~rbu3.poly.MultiPoly` values; the two
mix freely inside one matrix as long as every polynomial shares one variable
table.

Multiplication follows the matrix-unit structure constants
``e_ij * e_kl = delta_jk * e_il``, so products of upper-triangular matrices
stay upper-triangular.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import (MultiPoly, ParseError, VarTable, add_terms, format_terms,
                   parse_terms)

__all__ = [
    "BasisIndex",
    "IncompatibleOperands",
    "UTMatrix",
    "basis_indices",
    "basis_name",
    "name_to_index",
    "parse_matrix",
    "combine",
    "rref",
    "exact_rank",
    "solve_exact",
    "generic_rank",
    "vanishing_power",
]

BasisIndex = tuple  # (row, col) with 1 <= row <= col <= n


class IncompatibleOperands(ValueError):
    pass


def basis_indices(n: int) -> list:
    """Canonical ordered basis: (1,1) < (1,2) < ... < (n,n), row-major."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def basis_name(index: BasisIndex) -> str:
    i, j = index
    return f"e{i}{j}"


def name_to_index(name: str, n: int) -> BasisIndex:
    if len(name) == 3 and name[0] == "e" and name[1].isdigit() and name[2].isdigit():
        i, j = int(name[1]), int(name[2])
        if 1 <= i <= j <= n:
            return (i, j)
    raise ValueError(f"not a basis element of U_{n}: {name!r}")


class UTMatrix:
    """An element of the upper-triangular matrix algebra U_n."""

    __slots__ = ("n", "entries")

    def __init__(self, n: int, entries=None):
        if n < 1:
            raise ValueError("algebra size must be at least 1")
        self.n = n
        clean = {}
        if entries:
            for (i, j), value in entries.items():
                if not (1 <= i <= j <= n):
                    raise ValueError(f"index ({i},{j}) outside the upper triangle")
                if value:
                    clean[(i, j)] = value
        self.entries = clean

    @staticmethod
    def _filtered(n: int, entries: dict) -> "UTMatrix":
        """A result of the algebra's own operations, whose indices are valid
        by construction: only its zero entries are dropped."""
        result = UTMatrix.__new__(UTMatrix)
        result.n = n
        result.entries = {k: v for k, v in entries.items() if v}
        return result

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(n: int) -> "UTMatrix":
        return UTMatrix(n)

    @staticmethod
    def unit(n: int) -> "UTMatrix":
        """The identity matrix, the unit of U_n."""
        return UTMatrix(n, {(i, i): Fraction(1) for i in range(1, n + 1)})

    @staticmethod
    def basis(n: int, i: int, j: int) -> "UTMatrix":
        return UTMatrix(n, {(i, j): Fraction(1)})

    # -- structure ----------------------------------------------------------

    def entry(self, i: int, j: int):
        return self.entries.get((i, j), Fraction(0))

    def is_zero(self) -> bool:
        return not self.entries

    def __bool__(self) -> bool:
        return bool(self.entries)

    def is_strictly_upper(self) -> bool:
        return all(i != j for (i, j) in self.entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UTMatrix):
            return NotImplemented
        return self.n == other.n and self.entries == other.entries

    # -- vector space operations --------------------------------------------

    def _check(self, other: "UTMatrix"):
        if not isinstance(other, UTMatrix) or self.n != other.n:
            raise IncompatibleOperands("incompatible operands")

    def __add__(self, other: "UTMatrix") -> "UTMatrix":
        self._check(other)
        return UTMatrix._filtered(
            self.n, add_terms(dict(self.entries), other.entries.items()))

    def __sub__(self, other: "UTMatrix") -> "UTMatrix":
        self._check(other)
        return self + (-other)

    def __neg__(self) -> "UTMatrix":
        return UTMatrix._filtered(self.n, {k: -v for k, v in self.entries.items()})

    def scale(self, scalar) -> "UTMatrix":
        if not scalar:
            return UTMatrix(self.n)
        return UTMatrix._filtered(self.n,
                                  {k: scalar * v for k, v in self.entries.items()})

    # -- algebra multiplication ----------------------------------------------

    def __mul__(self, other: "UTMatrix") -> "UTMatrix":
        """Exact product via e_ij * e_kl = delta_jk * e_il."""
        self._check(other)
        return UTMatrix._filtered(self.n, add_terms({}, (
            ((i, l), x * y) for (i, j), x in self.entries.items()
            for (k, l), y in other.entries.items() if j == k)))

    # -- predicates ----------------------------------------------------------

    def nilpotency_degree(self):
        """Least k >= 1 with a^k = 0, or None when a^n != 0.

        For polynomial entries this asks that each power vanish identically.
        """
        return vanishing_power(self, lambda power: power * self, self.n)

    def is_idempotent(self) -> bool:
        return self * self == self

    def rank(self) -> int:
        """Rank by exact Gaussian elimination (rational entries only)."""
        if any(isinstance(value, MultiPoly) for value in self.entries.values()):
            raise TypeError("rank needs rational entries; "
                            "use generic_rank for polynomial matrices")
        span = range(1, self.n + 1)
        return exact_rank([[self.entry(i, j) for j in span] for i in span])

    # -- coordinates -----------------------------------------------------------

    def to_vector(self) -> list:
        return [self.entries.get(idx, Fraction(0)) for idx in basis_indices(self.n)]

    # -- printing ----------------------------------------------------------------

    def to_str(self) -> str:
        """Sum-of-terms literal, e.g. ``"e12 + 2*e23 - 1/3*e13"``.

        Polynomial coefficients are flattened one monomial per term so the
        output stays inside the literal grammar and round-trips.
        """
        pieces = []
        for idx in basis_indices(self.n):
            value = self.entries.get(idx)
            if value is None:
                continue
            name = basis_name(idx)
            if isinstance(value, MultiPoly):
                pieces.extend((coeff, f"{mono}*{name}" if mono else name)
                              for coeff, mono in value.term_texts())
            else:
                pieces.append((value, name))
        return format_terms(pieces)

    def __str__(self) -> str:
        return self.to_str()

    def __repr__(self) -> str:
        return f"UTMatrix({self.n}, {self.to_str()!r})"


def parse_matrix(text: str, n: int = 3, table: VarTable | None = None) -> UTMatrix:
    """Parse a sum-of-terms matrix literal.

    Each term is ``[coef*]eIJ`` with ``coef`` built from integer/fraction
    literals and (when ``table`` is given) parameter names, joined by ``*``;
    the term grammar is :func:`~rbu3.poly.parse_terms`.  Repeated basis
    elements accumulate.
    """
    text = text.strip()
    if text == "0" or text == "":
        return UTMatrix(n)
    total = UTMatrix(n)
    for coeff, names, term_at in parse_terms(text):
        if table is not None:
            coeff = MultiPoly.const(table, coeff)
        basis_idx = None
        for name, exp, at in names:
            try:
                idx = name_to_index(name, n)
            except ValueError:
                idx = None
            if idx is not None:
                if basis_idx is not None:
                    raise ParseError("two basis elements in one term", at)
                if exp != 1:
                    raise ParseError("a basis element takes no exponent", at)
                basis_idx = idx
            elif table is None or name not in table.index:
                raise ParseError(f"unknown symbol {name!r}", at)
            else:
                coeff = coeff * table.var(name) ** exp
        if basis_idx is None:
            raise ParseError("term without a basis element", term_at)
        total = total + UTMatrix(n, {basis_idx: coeff})
    return total


def combine(columns, coords, n: int) -> UTMatrix:
    """The linear combination of ``columns`` with coefficients ``coords``.

    Both are mappings keyed alike: the sum, in the order of ``coords``, of
    ``coeff * columns[key]``, where a key without a column adds nothing.
    With a linear map's images as ``columns`` and an element's entries as
    ``coords`` this applies the map to the element.

    The products are summed into one dict by ``add_terms``, in the entry
    order of summing scaled columns: a zero product never enters.
    """
    entries = {}
    for key, coeff in coords.items():
        column = columns.get(key)
        if column is not None:
            add_terms(entries, ((cell, product)
                                for cell, value in column.entries.items()
                                if (product := coeff * value)))
    return UTMatrix._filtered(n, entries)


def vanishing_power(x, times, cap: int):
    """Least k in 1..cap with x^k = 0, or None: ``times(p)`` is p * x, and
    no power above x^cap is computed."""
    if cap < 1:
        raise ValueError(f"cap must be at least 1, not {cap}")
    power, k = x, 1
    while not power.is_zero():
        if k == cap:
            return None
        power, k = times(power), k + 1
    return k


# -- exact linear algebra helpers -------------------------------------------


def rref(rows: list, ncols: int | None = None):
    """Reduced row echelon form of a rational matrix, by exact elimination.

    Pivots run left to right over the first ``ncols`` columns (all of them
    when ``ncols`` is None); each column's pivot is the first row at or
    below the current rank with a nonzero entry there.  Any further columns
    ride along as an augmented block.  Returns ``(rows, pivots)``: the
    reduced rows, as new ``Fraction`` lists, and the pivot column of each of
    the first ``len(pivots)`` rows.  The rows after those are zero in the
    first ``ncols`` columns.

    Only the pivot row's nonzero columns are scaled and eliminated over: an
    entry above or below a zero of the pivot row is left as it is.
    """
    rows = [list(map(Fraction, row)) for row in rows]
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        if rank == len(rows):
            break
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        pivot_row = rows[rank]
        support = [c for c, value in enumerate(pivot_row) if value]
        inv = 1 / pivot_row[col]
        for c in support:
            pivot_row[c] *= inv
        for r, row in enumerate(rows):
            factor = row[col]
            if r != rank and factor:
                for c in support:
                    row[c] -= factor * pivot_row[c]
        pivots.append(col)
    return rows, pivots


def exact_rank(rows: list) -> int:
    """Rank of a rational matrix by fraction-exact Gaussian elimination."""
    return len(rref(rows)[1])


def solve_exact(matrix: list, rhs: list):
    """Solve M x = rhs over the rationals; returns a solution list or None."""
    if not matrix:
        return [] if not any(rhs) else None
    ncols = len(matrix[0])
    rows, pivots = rref([list(row) + [b] for row, b in zip(matrix, rhs)], ncols)
    if any(row[ncols] for row in rows[len(pivots):]):
        return None
    solution = [Fraction(0)] * ncols
    for row, col in zip(rows, pivots):
        solution[col] = row[ncols]
    return solution


def generic_rank(rows: list) -> int:
    """Rank over the fraction field of the coefficient ring.

    Entries may be ``Fraction`` or ``MultiPoly``; elimination is fraction-free
    (cross-multiplication), so the result is the rank at a generic parameter
    point.
    """
    work = [list(row) for row in rows]
    if not work:
        return 0
    cols = len(work[0])
    rank = 0
    row_count = len(work)
    for col in range(cols):
        pivot = None
        for r in range(rank, row_count):
            if work[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        pivot_val = work[rank][col]
        for r in range(rank + 1, row_count):
            if not work[r][col]:
                continue
            factor = work[r][col]
            work[r] = [pivot_val * a - factor * b
                       for a, b in zip(work[r], work[rank])]
        rank += 1
        if rank == row_count:
            break
    return rank
