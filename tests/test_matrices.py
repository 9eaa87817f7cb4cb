"""Structure of the upper-triangular algebra: products, unit, predicates."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rbu3.matrices import (UTMatrix, basis_indices, exact_rank, generic_rank,
                           parse_matrix, rref, solve_exact)
from rbu3.poly import MultiPoly, ParseError, VarTable


def e(i, j, n=3):
    return UTMatrix.basis(n, i, j)


# references: coordinates back to a matrix, and an inverse by one elimination
def from_vector(n, coords):
    return UTMatrix(n, dict(zip(basis_indices(n), coords, strict=True)))


def inverse_exact(matrix):
    """Inverse of a square rational matrix as rows, or None if singular."""
    d = len(matrix)
    rows, pivots = rref([list(row) + [int(r == c) for c in range(d)]
                         for r, row in enumerate(matrix)], d)
    return [row[d:] for row in rows] if len(pivots) == d else None


def test_structure_constants():
    assert e(1, 2) * e(2, 3) == e(1, 3)
    assert (e(2, 3) * e(2, 2)).is_zero()


def test_square_of_jordan_block():
    # expanding four products by the structure constants leaves only e12*e23
    a = e(1, 2) + e(2, 3)
    assert a * a == e(1, 3)


def test_unit_laws():
    one = UTMatrix.unit(3)
    assert one * e(1, 3) == e(1, 3)
    assert one == e(1, 1) + e(2, 2) + e(3, 3)


def test_associativity_exhaustive_216():
    basis = [e(i, j) for (i, j) in basis_indices(3)]
    for a, b, c in itertools.product(basis, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_size_mismatch_rejected():
    with pytest.raises(ValueError, match="incompatible operands"):
        e(1, 2) * UTMatrix.basis(2, 1, 2)


def test_outside_entries_are_checked_and_internal_results_drop_zeros():
    with pytest.raises(ValueError, match="outside the upper triangle"):
        UTMatrix(3, {(2, 1): Fraction(1)})
    with pytest.raises(ValueError, match="outside the upper triangle"):
        UTMatrix(3, {(1, 4): Fraction(1)})
    a = e(1, 2) + e(1, 3).scale(Fraction(2))
    assert (a - a).entries == {}
    assert (a + (-e(1, 2))).entries == {(1, 3): Fraction(2)}
    assert a.scale(Fraction(3)).entries == {(1, 2): 3, (1, 3): 6}
    assert (e(1, 2) * e(2, 3) - e(1, 3)).entries == {}
    x = VarTable(["x"]).var("x")
    assert (e(1, 2).scale(x) * e(2, 2).scale(-x) + e(1, 2).scale(x * x)).entries == {}


def test_nilpotency_degrees():
    assert (e(1, 2) + e(2, 3)).nilpotency_degree() == 3
    assert e(1, 3).nilpotency_degree() == 2
    assert e(1, 1).nilpotency_degree() is None
    assert UTMatrix.zero(3).nilpotency_degree() == 1


def test_nilpotency_degree_at_its_cap_of_n(monkeypatch):
    assert UTMatrix.zero(1).nilpotency_degree() == 1
    multiply = UTMatrix.__mul__
    products = []

    def counted(a, b):
        products.append(1)
        return multiply(a, b)
    monkeypatch.setattr(UTMatrix, "__mul__", counted)
    # n = 1: the cap is 1, so no power is taken
    assert UTMatrix.unit(1).nilpotency_degree() is None and products == []
    assert (e(1, 2, 2).nilpotency_degree(), len(products)) == (2, 1)
    products.clear()
    # not nilpotent: a^2 .. a^n are taken, none above
    assert (e(1, 1, 4).nilpotency_degree(), len(products)) == (None, 3)


def test_idempotents_and_rank():
    a = parse_matrix("e11 + 3*e12 + 5*e13")
    assert a.is_idempotent() and a.rank() == 1
    b = parse_matrix("e11 + e22")
    assert b.is_idempotent() and b.rank() == 2
    c = e(1, 2)
    assert not c.is_idempotent() and c.rank() == 1


def test_rational_canonical_pair():
    q = Fraction(6, -4)
    assert (q.numerator, q.denominator) == (-3, 2)


def test_matrix_literal_round_trip():
    for text in ("e12 + 2*e23 - 1/3*e13", "e11 - e33", "0", "-e12"):
        m = parse_matrix(text)
        assert parse_matrix(m.to_str()) == m


def test_matrix_literal_accumulates_repeats():
    assert parse_matrix("e12 + e12 - 2*e12").is_zero()


def test_vector_round_trip():
    m = parse_matrix("e11 - 2*e12 + 1/2*e23")
    assert from_vector(3, m.to_vector()) == m


def test_general_size_algebra():
    one = UTMatrix.unit(4)
    a = UTMatrix.basis(4, 1, 3) + UTMatrix.basis(4, 3, 4)
    assert one * a == a and a * one == a
    assert a * a == UTMatrix.basis(4, 1, 4)
    assert a.nilpotency_degree() == 3
    strict = UTMatrix(4, {(1, 2): Fraction(1), (2, 3): Fraction(2),
                          (3, 4): Fraction(3)})
    assert strict.nilpotency_degree() == 4
    assert len(basis_indices(4)) == 10


entries = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@st.composite
def matrices(draw, strict=False):
    pairs = [(i, j) for (i, j) in basis_indices(3) if not strict or i < j]
    return UTMatrix(3, {idx: draw(entries) for idx in pairs})


@settings(derandomize=True, max_examples=50)
@given(matrices(), matrices(), matrices())
def test_distributivity_random(a, b, c):
    assert a * (b + c) == a * b + a * c
    assert (a + b) * c == a * c + b * c


@settings(derandomize=True, max_examples=50)
@given(matrices(strict=True))
def test_strictly_upper_cube_vanishes(a):
    assert (a * a * a).is_zero()


def test_parameter_with_explicit_first_power():
    table = VarTable(["a"])
    a = table.var("a")
    assert parse_matrix("a^1*e12", 3, table) == UTMatrix(3, {(1, 2): a})
    assert parse_matrix("2*a^1*e13 - a^2*e12", 3, table) == \
        UTMatrix(3, {(1, 3): 2 * a, (1, 2): -a * a})


def test_basis_element_takes_no_exponent():
    with pytest.raises(ParseError, match="no exponent"):
        parse_matrix("e12^2")


def test_juxtaposed_terms_are_rejected():
    for text in ("e12 e13", "2 e12", "e12 + 2 3*e13"):
        with pytest.raises(ParseError, match="'[+]' or '-'"):
            parse_matrix(text)


TWO = VarTable(["kappa", "lam"])
small = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def poly_coefficients(draw):
    terms = {(draw(st.integers(0, 2)), draw(st.integers(0, 2))): draw(small)
             for _ in range(draw(st.integers(0, 3)))}
    return MultiPoly(TWO, terms)


@settings(derandomize=True, max_examples=60)
@given(st.dictionaries(st.sampled_from(basis_indices(3)), poly_coefficients()))
def test_matrix_literal_round_trip_with_parameters(entries):
    m = UTMatrix(3, entries)
    assert parse_matrix(m.to_str(), 3, TWO) == m


# -- the exact elimination kernel ----------------------------------------------

# small entries with many zeros, so that singular and rank-deficient
# matrices come up often
kernel_entries = st.sampled_from([Fraction(0)] * 4 + [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)])


@st.composite
def rational_matrices(draw, rows=None, cols=None):
    rows = draw(st.integers(1, 4)) if rows is None else rows
    cols = draw(st.integers(1, 4)) if cols is None else cols
    matrix = [[draw(kernel_entries) for _ in range(cols)] for _ in range(rows)]
    if rows > 1 and draw(st.booleans()):
        # force a dependent row: a combination of two others
        i, j, k = (draw(st.integers(0, rows - 1)) for _ in range(3))
        f, g = draw(kernel_entries), draw(kernel_entries)
        matrix[k] = [f * x + g * y for x, y in zip(matrix[i], matrix[j])]
    return matrix


@st.composite
def square_matrices(draw):
    d = draw(st.integers(1, 4))
    return draw(rational_matrices(d, d))


def mat_vec(matrix, x):
    return [sum(a * b for a, b in zip(row, x)) for row in matrix]


@settings(derandomize=True, max_examples=200)
@given(rational_matrices(), st.data())
def test_solve_exact_solves_or_proves_inconsistency(matrix, data):
    rhs = [data.draw(kernel_entries) for _ in matrix]
    x = solve_exact(matrix, rhs)
    augmented = [row + [b] for row, b in zip(matrix, rhs)]
    if x is None:
        assert exact_rank(augmented) > exact_rank(matrix)
    else:
        assert len(x) == len(matrix[0])
        assert mat_vec(matrix, x) == rhs


@settings(derandomize=True, max_examples=200)
@given(square_matrices())
def test_inverse_exact_inverts_or_reports_singular(matrix):
    d = len(matrix)
    inverse = inverse_exact(matrix)
    if inverse is None:
        assert exact_rank(matrix) < d
    else:
        identity = [[Fraction(int(r == c)) for c in range(d)] for r in range(d)]
        product = [[sum(inverse[r][k] * matrix[k][c] for k in range(d))
                    for c in range(d)] for r in range(d)]
        assert product == identity


@settings(derandomize=True, max_examples=200)
@given(rational_matrices())
def test_exact_rank_matches_fraction_free_rank(matrix):
    assert exact_rank(matrix) == generic_rank(matrix)


def dense_rref(rows, ncols):
    """Gauss-Jordan elimination touching every entry of every row."""
    rows = [list(map(Fraction, row)) for row in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        rows[rank] = [v / rows[rank][col] for v in rows[rank]]
        for r in range(len(rows)):
            if r != rank:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
    return rows, pivots


@settings(derandomize=True, max_examples=200)
@given(rational_matrices(), st.data())
def test_rref_matches_dense_elimination(matrix, data):
    # an augmented block rides along when ncols is short of the width
    ncols = data.draw(st.integers(0, len(matrix[0])))
    assert rref(matrix, ncols) == dense_rref(matrix, ncols)


def test_combine_sums_coefficient_times_column():
    from rbu3.matrices import combine
    columns = {"u": parse_matrix("e11 + e12"), "v": parse_matrix("e12 - e33")}
    coords = {"v": Fraction(2), "u": Fraction(-1), "w": Fraction(5)}
    # a key without a column adds nothing
    assert combine(columns, coords, 3) == parse_matrix("-e11 + e12 - 2*e33")
    assert combine(columns, {}, 3).is_zero()


def per_term_combine(columns, coords, n):
    """``combine`` as a sum of scaled columns, one matrix per term."""
    total = UTMatrix(n)
    for key, coeff in coords.items():
        column = columns.get(key)
        if column is not None:
            total = total + column.scale(coeff)
    return total


TS = VarTable(["t", "s"])
T, S = TS.var("t"), TS.var("s")
# few values, opposite pairs among them, so that sums cancel often; the
# ints meet the Fraction 1, whose product with an int is still a Fraction
SMALL = [Fraction(1), Fraction(-1), Fraction(2), Fraction(0), T, -T, T * S,
         MultiPoly.const(TS, -2), T + 1, 1, 3]


@st.composite
def combinations(draw):
    """Columns with rational and polynomial entries, and coordinates over
    their keys and one key without a column."""
    small = st.sampled_from(SMALL)
    columns = {idx: UTMatrix(3, draw(st.dictionaries(
        st.sampled_from(basis_indices(3)), small, max_size=4)))
        for idx in basis_indices(3)}
    keys = st.sampled_from(basis_indices(3) + [(4, 4)])
    return columns, draw(st.dictionaries(keys, small, max_size=6))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(combinations())
def test_combine_matches_the_per_term_sum(problem):
    from rbu3.matrices import combine
    columns, coords = problem
    got = combine(columns, coords, 3).entries
    expected = per_term_combine(columns, coords, 3).entries
    # entry order (a cancelled entry re-enters last) and entry types
    assert list(got.items()) == list(expected.items())
    assert [type(v) for v in got.values()] == [type(v) for v in expected.values()]
    assert all(got.values())


def test_constant_polynomial_entries_equal_rationals():
    table = VarTable(["t"])
    poly = UTMatrix(3, {(1, 2): MultiPoly.const(table, 2)})
    rational = UTMatrix(3, {(1, 2): Fraction(2)})
    assert poly == rational and rational == poly
    assert poly != UTMatrix(3, {(1, 2): Fraction(3)})
    other = UTMatrix(3, {(1, 2): VarTable(["s"]).var("s")})
    assert UTMatrix(3, {(1, 2): table.var("t")}) != other


def test_utmatrix_is_unhashable():
    with pytest.raises(TypeError):
        hash(UTMatrix.unit(3))
