"""Operators, the residual table, system generation, and the unital checks."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rbu3.catalog import build_catalog, case_preset, case_preset_names, get_entry
from rbu3.matrices import (UTMatrix, basis_indices, basis_name, exact_rank,
                           parse_matrix, solve_exact)
from rbu3.operators import (Ansatz, ContradictoryAnsatz, Operator, bvar_name,
                            check_lemma3, generate_system, rb_residual,
                            scale_operator, unit_in_image)
from rbu3.poly import MultiPoly, VarTable, as_fraction, grevlex, write_json
from rbu3.transform import AutoParams, Witness

from reference import ShapeAnsatz, identity, leading, symbolic_operator


def e(i, j):
    return UTMatrix.basis(3, i, j)


R5 = Operator.from_images({"e12": "e11"})
R40 = Operator.from_images(
    {"e12": "e13", "e11": "e12 + b*e13 + e23", "e22": "f*e13 + e23",
     "e33": "-b*e13 - f*e13"}, params=("b", "f"))


def test_apply_examples():
    assert R5.apply(e(1, 2)) == e(1, 1)
    assert R5.apply(UTMatrix.zero(3)).is_zero()
    assert R40.apply(UTMatrix.unit(3)) == parse_matrix("e12 + 2*e23")


def test_residual_of_r5_vanishes_everywhere():
    residual = rb_residual(R5)
    assert residual.entries == {}
    assert residual.is_zero()
    # spot pair (e12, e12): both sides equal e11
    lhs = R5.apply(e(1, 2)) * R5.apply(e(1, 2))
    rhs = R5.apply(R5.apply(e(1, 2)) * e(1, 2) + e(1, 2) * R5.apply(e(1, 2)))
    assert lhs == rhs == e(1, 1)


def test_residual_of_zero_operator():
    assert rb_residual(Operator(3)).is_zero()


def test_identity_map_is_not_rota_baxter():
    residual = rb_residual(identity(3))
    pair, pos, value = residual.first_nonzero()
    assert pair == ((1, 1), (1, 1)) and pos == (1, 1) and value == Fraction(-1)


def test_residual_bilinearity_on_random_elements():
    # residual at (x, y) equals the bilinear combination of basis-pair cells
    import random
    rng = random.Random(5)
    op = R40.substitute_params({"b": Fraction(2), "f": Fraction(-1, 3)})
    entries = rb_residual(op).entries
    for _ in range(5):
        x = UTMatrix(3, {idx: Fraction(rng.randint(-4, 4))
                         for idx in basis_indices(3)})
        y = UTMatrix(3, {idx: Fraction(rng.randint(-4, 4))
                         for idx in basis_indices(3)})
        direct = (op.apply(x) * op.apply(y)
                  - op.apply(op.apply(x) * y + x * op.apply(y)))
        combined = UTMatrix.zero(3)
        for ((u, v), pos), value in entries.items():
            combined = combined + UTMatrix(3, {pos: value * x.entry(*u) * y.entry(*v)})
        assert direct == combined


def test_scale_operator():
    scaled = scale_operator(R5, Fraction(2))
    assert scaled.image((1, 2)) == e(1, 1).scale(Fraction(1, 2))
    assert rb_residual(scaled).is_zero()
    assert scale_operator(R5, 1) == R5
    k = Fraction(-3, 7)
    assert scale_operator(scale_operator(R5, k), 1 / k) == R5
    with pytest.raises(ValueError):
        scale_operator(R5, 0)


def test_operator_json_round_trip(tmp_path):
    path = tmp_path / "op.json"
    write_json(path, R40.to_json())
    loaded = Operator.load(path)
    assert loaded == R40 and loaded.params() == ("b", "f")


# -- system generation -------------------------------------------------------


def test_generate_system_fixed_rb_operator_is_empty():
    ansatz = ShapeAnsatz(3)
    for name, text in (("e11", "0"), ("e12", "e11"), ("e13", "0"),
                       ("e22", "0"), ("e23", "0"), ("e33", "0")):
        ansatz.fix_image(name, text)
    system, shape = generate_system(ansatz)
    assert len(system.table) == 0 and len(system.gens) == 0
    assert symbolic_operator(shape, ansatz.weight) == R5


def test_generate_system_fixed_non_rb_operator_is_inconsistent():
    ansatz = ShapeAnsatz(3)
    for (i, j) in basis_indices(3):
        ansatz.fix_image(f"e{i}{j}", f"e{i}{j}")  # the identity map
    system, _ = generate_system(ansatz)
    assert any(g.is_constant() for g in system.gens)


def test_generate_system_nilpotent_image_case_has_15_unknowns():
    ansatz = ShapeAnsatz(3).fix_unit_image("0")
    for name in ("e11", "e12", "e13", "e22", "e23", "e33"):
        ansatz.restrict_span(name, ["e12", "e13", "e23"])
    system, _ = generate_system(ansatz)
    assert len(system.table) == 15
    assert all(g.total_degree() <= 2 for g in system.gens)


def test_generate_system_r1_e12_e23_contains_the_branch_quadratic():
    # fully symbolic apart from R(1) = e12 + e23
    system, shape = generate_system(ShapeAnsatz(3).fix_unit_image("e12 + e23"))
    assert len(system.table) == 30
    from rbu3.groebner import buchberger, normal_form
    gb = buchberger(system)
    quad = shape.expand("b_33_23^2 - b_33_23")
    assert normal_form(quad * quad, gb.basis, system.order).is_zero()


def test_contradictory_ansatz():
    ansatz = Ansatz(3, constraints=["b_11_12", "b_11_12 - 1"])
    with pytest.raises(ContradictoryAnsatz, match="contradictory ansatz"):
        generate_system(ansatz)


def symbolic_generators(shape, weight):
    """The symbolic route, the oracle for the int build: the ansatz
    operator's ``MultiPoly`` residual entries, each divided by its grevlex
    leading coefficient, deduplicated in order."""
    gens = []
    for value in rb_residual(symbolic_operator(shape, weight)).entries.values():
        if not isinstance(value, MultiPoly):
            value = MultiPoly.const(shape.table, value)
        gens.append(value * (1 / leading(value, grevlex())[1]))
    return tuple(dict.fromkeys(gens))


def assert_generators_match_the_symbolic_route(ansatz):
    system, shape = generate_system(ansatz)
    # the same generators in the same order, every coefficient a Fraction
    assert system.gens == symbolic_generators(shape, ansatz.weight)
    assert all(type(c) is Fraction for g in system.gens for c in g.terms.values())
    return system


@pytest.mark.parametrize("name", case_preset_names())
def test_preset_generators_match_the_symbolic_route(name):
    assert_generators_match_the_symbolic_route(case_preset(name).ansatz())


def random_matrix_text(rng, names):
    return " + ".join(f"{Fraction(rng.randint(-4, 4), rng.randint(1, 3))}*{name}"
                      for name in rng.sample(names, rng.randint(1, 2)))


def random_ansatz(rng, n, weight):
    """Spans, fixed images, R(1) and ties drawn at random; redrawn until
    consistent."""
    names = [basis_name(idx) for idx in basis_indices(n)]
    while True:
        ansatz = ShapeAnsatz(n, weight)
        for name in names:  # at most three unknowns per image
            ansatz.restrict_span(name, rng.sample(names, rng.randint(1, 3)))
        fixed = rng.choice(names)
        ansatz.fix_image(fixed, random_matrix_text(rng, names))
        if rng.random() < 0.5:
            ansatz.fix_unit_image(random_matrix_text(rng, names))
        first, second = rng.sample(ansatz.all_bvars(), 2)
        ansatz.constraints.append(
            f"{first} - {Fraction(rng.randint(-3, 3), rng.randint(1, 2))}"
            f"*{second} + {rng.randint(-2, 2)}")
        try:
            generate_system(ansatz)
        except ContradictoryAnsatz:
            continue
        return ansatz


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("weight", [Fraction(0), Fraction(-2, 3)])
def test_random_ansatz_generators_match_the_symbolic_route(n, weight):
    rng = random.Random(f"{n}/{weight}")
    sizes = set()
    for _ in range(6):
        system = assert_generators_match_the_symbolic_route(
            random_ansatz(rng, n, weight))
        sizes.add(len(system.gens))
    assert max(sizes) > 1


@pytest.mark.parametrize("weight", [Fraction(0), Fraction(1, 2)])
def test_a_constant_residual_entry_gives_the_unit_ideal(weight):
    # R(e11) = 2 e11: the residual at (e11, e11) is the nonzero constant
    # (4 - 8 - 2 lambda) e11, beside quadratic entries in the free images
    ansatz = ShapeAnsatz(3, weight).fix_image("e11", "2*e11")
    for name in ("e12", "e22"):
        ansatz.restrict_span(name, ["e12", "e22"])
    system = assert_generators_match_the_symbolic_route(ansatz)
    assert MultiPoly.const(system.table, 1) in system.gens
    assert any(g.total_degree() == 2 for g in system.gens)


# -- unital checks -----------------------------------------------------------


def test_lemma_checks_on_r40():
    report = check_lemma3(R40)
    assert report.unit_not_in_image
    assert report.kernel_contains_image is None  # R(1) != 0, no claim
    assert report.unit_power_identity
    # the n = 2 instance concretely: R(1)^2 = 2 e13 = 2 R^2(1)
    r1 = R40.unit_image()
    assert r1 * r1 == parse_matrix("2*e13")
    assert R40.apply(r1).scale(Fraction(2)) == parse_matrix("2*e13")


def test_lemma_checks_on_r5():
    report = check_lemma3(R5)
    assert report.unit_not_in_image
    assert report.kernel_contains_image is True  # R(1) = 0 forces R^2 = 0
    assert report.unit_power_identity


def test_lemma_checks_on_zero_operator():
    report = check_lemma3(Operator(3))
    assert report.unit_not_in_image
    assert report.kernel_contains_image is True  # R(1) = 0 and R^2 = 0
    assert report.unit_power_identity


# -- the residual kernel against the plain matrix formula ----------------------


def oracle_residual_cells(op):
    """R(u) R(v) - R(R(u) v + u R(v) + lambda u v) by general matrix products."""
    cells = {}
    for u in basis_indices(op.n):
        ru, bu = op.image(u), UTMatrix.basis(op.n, *u)
        for v in basis_indices(op.n):
            rv, bv = op.image(v), UTMatrix.basis(op.n, *v)
            inner = ru * bv + bu * rv
            if op.weight:
                inner = inner + (bu * bv).scale(op.weight)
            cells[(u, v)] = ru * rv - op.apply(inner)
    return cells


TWO = VarTable(["kappa", "lam"])
small = st.sampled_from([Fraction(0)] * 3 + [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 4)])
weights = st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(-3)])


@st.composite
def poly_entries(draw):
    terms = {(draw(st.integers(0, 2)), draw(st.integers(0, 2))): draw(small)
             for _ in range(draw(st.integers(0, 2)))}
    return MultiPoly(TWO, terms)


@st.composite
def operators(draw, entries):
    # each column may be missing altogether, and each entry may be zero
    sources = draw(st.sets(st.sampled_from(basis_indices(3))))
    columns = {src: UTMatrix(3, draw(st.dictionaries(
        st.sampled_from(basis_indices(3)), entries, max_size=4)))
        for src in sources}
    return Operator(3, columns, draw(weights))


def assert_matches_the_oracle(op):
    """The nonzero entries, ordered by basis pair and then by position, each
    equal to the oracle's."""
    got = list(rb_residual(op).entries.items())
    expected = [((pair, pos), cell.entries[pos])
                for pair, cell in oracle_residual_cells(op).items()
                for pos in basis_indices(op.n) if pos in cell.entries]
    assert got == expected
    # Fraction(3) == 3, so equality alone would let an int through
    assert all(type(v) in (Fraction, MultiPoly) for _, v in got)


@settings(derandomize=True, max_examples=150)
@given(st.one_of(operators(small), operators(poly_entries())))
def test_residual_matches_the_matrix_product_formula(op):
    assert_matches_the_oracle(op)


# the residual runs on cleared denominators: mixed entries with denominators
# 3, 5 and 7 and rational weights make the common denominator D > 1
rationals_357 = st.sampled_from([Fraction(0)] * 2 + [
    Fraction(1), Fraction(-2, 3), Fraction(4, 5), Fraction(-1, 7), Fraction(5, 21)])
mixed_weights = st.sampled_from([Fraction(0), Fraction(1, 3), Fraction(-3, 2)])


@st.composite
def mixed_operators(draw):
    entries = st.one_of(rationals_357, poly_entries())
    sources = draw(st.sets(st.sampled_from(basis_indices(3))))
    columns = {src: UTMatrix(3, draw(st.dictionaries(
        st.sampled_from(basis_indices(3)), entries, max_size=4)))
        for src in sources}
    return Operator(3, columns, draw(mixed_weights))


@settings(derandomize=True, max_examples=150)
@given(st.one_of(mixed_operators(), operators(rationals_357)))
def test_residual_over_cleared_denominators_matches_the_formula(op):
    assert_matches_the_oracle(op)


@pytest.mark.parametrize("weight", [Fraction(0), Fraction(1, 3), Fraction(-3, 2)])
def test_generic_operator_checks_every_entry_of_the_form(weight):
    # all 36 entries are independent unknowns, so every pair of entries is
    # multiplied and each cell component is its quadratic form, term by term
    idxs = basis_indices(3)
    table = VarTable([bvar_name(src, dst) for src in idxs for dst in idxs])
    op = Operator(3, {src: UTMatrix(3, {dst: table.var(bvar_name(src, dst))
                                        for dst in idxs}) for src in idxs}, weight)
    assert_matches_the_oracle(op)


def seeded_operator(n, seed, weight):
    rng = random.Random(seed)
    values = [Fraction(0)] * 4 + [Fraction(1), Fraction(-2, 3), Fraction(4, 5),
                                  Fraction(5, 7)]
    idxs = basis_indices(n)
    return Operator(n, {src: UTMatrix(n, {dst: rng.choice(values) for dst in idxs})
                        for src in idxs}, weight)


@pytest.mark.parametrize("n, seed, weight", [
    (2, 1, Fraction(0)), (2, 2, Fraction(-3, 2)), (2, 3, Fraction(1)),
    (4, 1, Fraction(0)), (4, 2, Fraction(1, 3))])
def test_residual_at_other_sizes_matches_the_formula(n, seed, weight):
    assert_matches_the_oracle(seeded_operator(n, seed, weight))


@pytest.mark.parametrize("n", [2, 4])
def test_known_operators_at_other_sizes_have_zero_residual(n):
    weight = Fraction(2, 3)
    idxs = basis_indices(n)
    minus_weight = Operator(n, {idx: UTMatrix.basis(n, *idx).scale(-weight)
                                for idx in idxs}, weight)
    diagonal = Operator(n, {(i, i): UTMatrix.basis(n, i, i)
                            for i in range(1, n + 1)}, Fraction(-1))
    assert rb_residual(minus_weight).is_zero()
    assert rb_residual(diagonal).is_zero()
    assert not rb_residual(with_weight(diagonal, 0)).is_zero()


@st.composite
def dense_operators(draw):
    # every entry drawn, so many are invertible and many hold the unit
    return Operator(3, {src: UTMatrix(3, {pos: draw(small)
                                          for pos in basis_indices(3)})
                        for src in basis_indices(3)}, Fraction(0))


@settings(derandomize=True, max_examples=200)
@given(st.one_of(operators(rationals_357), dense_operators()))
@example(Operator(3, {(1, 1): UTMatrix.unit(3)}, Fraction(0)))  # rank 1
@example(Operator(3))
@example(R5)
def test_unit_in_image_of_a_rational_operator_solves_r_x_equals_one(op):
    """The one rank test over chunks answers as solving R x = 1 exactly."""
    rhs = UTMatrix.unit(3).to_vector()
    expected = solve_exact(op.coefficient_rows(), rhs) is not None
    assert unit_in_image(op) is expected


def two_rank_unit_in_image(op):
    """The reference formulation: the unit lies in the span of the images'
    rational pieces (one per image and parameter monomial) iff appending it
    to them leaves the rank unchanged."""
    idxs = basis_indices(op.n)
    rows = []
    for idx in idxs:
        pieces = {}
        for pos, value in op.image(idx).entries.items():
            terms = value.terms.items() if isinstance(value, MultiPoly) else [(None, value)]
            for mono, coeff in terms:
                pieces.setdefault(mono, {})[pos] = coeff
        rows += [[piece.get(p, Fraction(0)) for p in idxs] for piece in pieces.values()]
    if not rows:
        return False
    return exact_rank(rows + [UTMatrix.unit(op.n).to_vector()]) == exact_rank(rows)


def test_unit_in_image_agrees_with_the_two_rank_reference():
    for entry in build_catalog(strict=False):
        assert unit_in_image(entry.operator) is two_rank_unit_in_image(
            entry.operator), entry.id
    answers = []
    for seed in range(500):
        rng = random.Random(seed)
        density = rng.choice((0.1, 0.3, 0.6, 0.9))
        op = Operator(3, {src: UTMatrix(3, {
            pos: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            for pos in basis_indices(3) if rng.random() < density})
            for src in basis_indices(3)}, Fraction(0))
        answers.append(unit_in_image(op))
        assert answers[-1] is two_rank_unit_in_image(op), seed
    assert True in answers and False in answers


def test_int_entries_give_rational_residual_entries():
    # R(e11) = 2 e11 at weight 1/3: 4 - 2 (2 + 2 + 1/3) = -14/3 at (e11, e11)
    op = Operator(3, {(1, 1): UTMatrix(3, {(1, 1): 2})}, Fraction(1, 3))
    residual = rb_residual(op)
    assert residual.first_nonzero() == (((1, 1), (1, 1)), (1, 1), Fraction(-14, 3))
    assert type(residual.first_nonzero()[2]) is Fraction
    assert residual.weight == Fraction(1, 3)


def test_first_failure_at_weight_one_third_is_exact():
    # R = 2/5 id at weight 1/3: the (e11, e11) cell at e11 is
    # (2/5)^2 - (2/5) (4/5 + 1/3) = 4/25 - 34/75 = -22/75
    op = Operator(3, {idx: e(*idx).scale(Fraction(2, 5))
                      for idx in basis_indices(3)}, Fraction(1, 3))
    assert rb_residual(op).first_nonzero() == (((1, 1), (1, 1)), (1, 1),
                                                Fraction(-22, 75))


# -- nonzero weights -------------------------------------------------------------

DIAGONAL = Operator(3, {(i, i): e(i, i) for i in (1, 2, 3)})
STRICT_UPPER = Operator(3, {idx: e(*idx) for idx in ((1, 2), (1, 3), (2, 3))})


def with_weight(op, weight):
    return Operator(op.n, op.columns, Fraction(weight))


def test_projections_of_a_subalgebra_splitting_have_weight_minus_one():
    # U_3 = D + N with D (diagonal) and N (strictly upper) both subalgebras
    assert rb_residual(with_weight(DIAGONAL, -1)).is_zero()
    assert rb_residual(with_weight(STRICT_UPPER, -1)).is_zero()


def test_minus_lambda_identity_has_weight_lambda():
    weight = Fraction(1, 2)
    op = Operator(3, {idx: e(*idx).scale(-weight) for idx in basis_indices(3)},
                  weight)
    assert rb_residual(op).is_zero()


def test_diagonal_projection_fails_at_weight_zero():
    residual = rb_residual(DIAGONAL)
    assert not residual.is_zero()
    assert residual.first_nonzero() == (((1, 1), (1, 1)), (1, 1), Fraction(-1))


def test_operator_equality_mixes_constant_polynomials_and_rationals():
    table = VarTable(["t"])
    poly = Operator(3, {(1, 2): UTMatrix(3, {(1, 1): MultiPoly.const(table, 2)})})
    rational = Operator.from_images({"e12": "2*e11"})
    assert poly == rational and rational == poly
    assert poly != Operator.from_images({"e12": "3*e11"})
    assert (Operator.from_images({"e12": "t*e11"}, params=("t",))
            != Operator.from_images({"e12": "s*e11"}, params=("s",)))


def test_operators_of_different_weights_are_unequal():
    assert with_weight(DIAGONAL, -1) != DIAGONAL
    assert DIAGONAL != with_weight(DIAGONAL, -1)
    assert with_weight(DIAGONAL, -1) == with_weight(DIAGONAL, -1)


def test_a_float_weight_is_refused_and_exact_weights_are_kept():
    with pytest.raises(TypeError, match="weight 0.5"):
        Operator(3, {(1, 2): e(1, 1)}, 0.5)
    with pytest.raises(TypeError, match="weight"):
        generate_system(Ansatz(3, -1.5))
    with pytest.raises(ValueError, match="weight '1/0'"):
        generate_system(Ansatz(3, "1/0", ["b_11_11"]))
    for weight, value in ((2, Fraction(2)), ("-3/2", Fraction(-3, 2)),
                          (Fraction(1, 3), Fraction(1, 3))):
        op = Operator(3, {(1, 2): e(1, 1)}, weight)
        assert op.weight == value and type(op.weight) is Fraction
        assert rb_residual(op).weight == value


@pytest.mark.parametrize("build", [
    lambda: AutoParams(alpha=0.1),
    lambda: Witness.from_json({"maps": [{"psi": {"alpha": "2", "beta": 0.1}}]}),
    lambda: scale_operator(R5, 0.1),
    lambda: get_entry("R26").operator.substitute_params({"kappa": 0.1}),
    lambda: R40.substitute_params({"b": 1, "f": 0.1}),
    lambda: MultiPoly(VarTable(["t"]), {(1,): 0.1}),
    lambda: MultiPoly(VarTable(["t"]), {(1,): 0.0}),
    lambda: Operator(3, {(1, 2): e(1, 1)}, 0.1),
    lambda: Operator.from_json(dict(R5.to_json(), weight=0.1)),
    lambda: Witness.from_json({"maps": [], "scalar": 0.1}),
], ids=["AutoParams", "Witness.from_json-psi", "scale_operator",
        "family-substitute_params", "substitute_params", "MultiPoly",
        "MultiPoly-zero", "Operator", "Operator.from_json", "Witness.from_json"])
def test_every_reader_of_a_rational_refuses_a_float(build):
    with pytest.raises(TypeError):
        build()


def test_a_bool_is_not_an_exact_rational():
    for value in (True, False):
        with pytest.raises(TypeError):
            as_fraction(value)
    with pytest.raises(TypeError):
        AutoParams(beta=True)


def test_exact_rationals_are_read_alike_and_zero_denominators_refused():
    assert as_fraction(3) == as_fraction("3") == Fraction(3)
    assert as_fraction("-1/10") == Fraction(-1, 10)
    assert AutoParams(alpha="1/10", beta=2).alpha == Fraction(1, 10)
    r26 = get_entry("R26").operator
    assert (r26.substitute_params({"kappa": "1/2"})
            == r26.substitute_params({"kappa": Fraction(1, 2)}))
    assert scale_operator(R5, "2") == scale_operator(R5, 2)
    for build in (lambda: as_fraction("1/0"), lambda: AutoParams(beta="1/0"),
                  lambda: Operator(3, weight="1/0")):
        with pytest.raises(ValueError, match="zero denominator"):
            build()


def test_power_vanish_index_at_its_cap(monkeypatch):
    compose = Operator.compose
    calls = []

    def counted(a, b):
        calls.append(1)
        return compose(a, b)
    monkeypatch.setattr(Operator, "compose", counted)
    assert Operator(3).power_vanish_index(cap=1) == 1
    assert R5.power_vanish_index(cap=1) is None  # R5^2 = 0 is not computed
    assert calls == []
    assert (R5.power_vanish_index(cap=2), len(calls)) == (2, 1)
    calls.clear()
    # not nilpotent: R^2, R^3 and R^4 are taken, none above the cap
    assert (identity(3).power_vanish_index(cap=4), len(calls)) == (None, 3)
    with pytest.raises(ValueError, match="cap must be at least 1, not 0"):
        R5.power_vanish_index(cap=0)
