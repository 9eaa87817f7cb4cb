"""Automorphism action: psi, the flip, conjugation, canonical forms, search."""

import json
import math
import random
from fractions import Fraction
from functools import cache

import pytest
from hypothesis import example, given, settings, strategies as st

from rbu3 import groebner, transform
from rbu3.catalog import build_catalog, catalog_ids, get_entry
from rbu3.matrices import UTMatrix, basis_indices, parse_matrix, rref
from rbu3.operators import (Operator, _cleared, _residual_values, rb_residual,
                            scale_operator)
from rbu3.groebner import Limits, PolySystem, ResourceLimitExceeded
from rbu3.poly import MultiPoly, VarTable, lex
from rbu3.transform import (AutoParams, PsiStep, ThetaStep, UnitCertificate,
                            Witness, build_psi, canonicalize_idempotent,
                            canonicalize_nilpotent, conjugate_operator,
                            find_conjugation, theta13)

from reference import psi_columns


def e(i, j):
    return UTMatrix.basis(3, i, j)


def random_psi(rng):
    nz = lambda: Fraction(rng.choice([x for x in range(-5, 6) if x]),
                          rng.randint(1, 3))
    q = lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return build_psi(AutoParams(nz(), q(), q(), nz(), q()))


def test_psi_columns():
    psi = build_psi(AutoParams(alpha=Fraction(2), beta=Fraction(3),
                               gamma=Fraction(5), delta=Fraction(7),
                               epsilon=Fraction(11)))
    assert psi.apply(e(1, 3)) == e(1, 3).scale(Fraction(2))
    assert psi.apply(e(2, 3)) == parse_matrix("2/7*e23 - 6/7*e13")
    assert build_psi(AutoParams()).apply(e(2, 2)) == e(2, 2)


def test_psi_rejects_degenerate_parameters():
    with pytest.raises(ValueError):
        AutoParams(alpha=0)
    with pytest.raises(ValueError):
        AutoParams(delta=0)


def test_psi_fixes_the_unit():
    psi = random_psi(random.Random(1))
    assert psi.apply(UTMatrix.unit(3)) == UTMatrix.unit(3)


def test_theta_is_an_involution_swapping_corners():
    th = theta13()
    assert th.apply(e(1, 2)) == e(2, 3)
    assert th.apply(e(1, 1)) == e(3, 3)
    assert th.apply(th.apply(parse_matrix("e12 - 2*e13"))) == \
        parse_matrix("e12 - 2*e13")
    # antimultiplicativity on one pair: theta(e12*e23) = theta(e23)theta(e12)
    assert th.apply(e(1, 2) * e(2, 3)) == th.apply(e(2, 3)) * th.apply(e(1, 2))


def test_maps_are_verified_at_construction():
    from rbu3.transform import AlgebraMap
    identity = {idx: UTMatrix.basis(3, *idx) for idx in basis_indices(3)}
    broken = dict(identity)
    broken[(1, 2)] = e(1, 3)  # breaks multiplicativity
    # e11 -> e11 + e22 respects every product e_ij e_jl, but sends the zero
    # product e22 e11 to e22 (e11 + e22) = e22
    leaky = dict(identity)
    leaky[(1, 1)] = e(1, 1) + e(2, 2)
    psi = random_psi(random.Random(3))
    bad_maps = [
        ("automorphism", broken, "multiplicative"),
        ("automorphism", leaky, "multiplicative"),
        ("automorphism", theta13().columns, "multiplicative"),
        ("antiautomorphism", psi.columns, "multiplicative"),
        # the zero map is multiplicative, but not invertible
        ("automorphism", {idx: UTMatrix.zero(3) for idx in identity},
         "not invertible"),
    ]
    for kind, columns, message in bad_maps:
        with pytest.raises(ValueError, match=message):
            AlgebraMap(3, kind, columns, identity)


def test_a_wrong_inverse_is_refused():
    from rbu3.transform import AlgebraMap
    psi = random_psi(random.Random(4))
    wrong = dict(psi.inverse_columns())
    wrong[(2, 3)] = wrong[(2, 3)] + e(1, 3)
    with pytest.raises(ValueError, match="not invertible"):
        AlgebraMap(3, "automorphism", psi.columns, wrong)
    # psi is not its own inverse, and theta's columns do not undo psi
    with pytest.raises(ValueError, match="not invertible"):
        AlgebraMap(3, "automorphism", psi.columns, psi.columns)
    with pytest.raises(ValueError, match="not invertible"):
        AlgebraMap(3, "automorphism", psi.columns, theta13().columns)
    same = AlgebraMap(3, "automorphism", psi.columns, psi.inverse_columns())
    assert (same.kind, same.columns) == (psi.kind, psi.columns)


def test_theta_passes_the_map_check_as_its_own_inverse():
    from rbu3.transform import AlgebraMap
    for n in (3, 2, 4):
        th = theta13(n)
        assert th.inverse_columns() == th.columns
        AlgebraMap(n, th.kind, th.columns, th.inverse_columns())


# -- psi in closed form, certified by one symbolic proof ------------------------

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=5)
invertible = rationals.filter(bool)
auto_params = st.builds(AutoParams, invertible, rationals, rationals,
                        invertible, rationals)


def inverse_by_elimination(phi):
    """The inverse columns by one exact elimination of [M | I], M the
    columns as rows: the per-instance route."""
    idxs = basis_indices(3)
    d = len(idxs)
    rows, _ = rref([phi.columns[idx].to_vector() + [int(r == c) for c in range(d)]
                    for r, idx in enumerate(idxs)], d)
    return {idx: UTMatrix(3, dict(zip(idxs, row[d:]))) for idx, row in zip(idxs, rows)}


@settings(derandomize=True, max_examples=150)
@given(auto_params)
def test_closed_form_inverse_matches_elimination(params):
    from rbu3.transform import AlgebraMap
    psi = build_psi(params)
    expected = inverse_by_elimination(psi)
    got = psi.inverse_columns()
    assert list(got) == list(expected)
    for idx in basis_indices(3):
        # same entries in the same order, all of them rationals
        assert (list(got[idx].entries.items())
                == list(expected[idx].entries.items()))
        assert all(type(v) is Fraction for v in got[idx].entries.values())
    # the per-instance check still accepts psi and its inverse
    assert AlgebraMap(3, "automorphism", psi.columns, got).columns == psi.columns
    inverse = AlgebraMap(3, "automorphism", got, psi.columns)
    for idx in basis_indices(3):
        assert inverse.apply(psi.apply(e(*idx))) == e(*idx)
        assert psi.apply(inverse.apply(e(*idx))) == e(*idx)


@settings(derandomize=True, max_examples=150)
@given(auto_params)
def test_psi_and_its_inverse_are_the_reference_table(params):
    """``build_psi``, read off conjugation by H, is the hand table, and its
    inverse is the table at the inverse's parameters: the same entries in
    the same order, all of them rationals."""
    a, b, c, d, e = (params.alpha, params.beta, params.gamma, params.delta,
                     params.epsilon)
    one = Fraction(1)
    psi = build_psi(params)
    for got, expected in (
            (psi.columns, psi_columns(a, b, c, d, e, 1 / d, one)),
            (psi.inverse_columns(),
             psi_columns(1 / a, -b / d, (b * e / d - c) / a, 1 / d,
                         -e / (a * d), d, one))):
        assert list(got) == list(expected)
        for idx in basis_indices(3):
            assert (list(got[idx].entries.items())
                    == list(expected[idx].entries.items()))
            assert all(type(v) is Fraction for v in got[idx].entries.values())


@pytest.mark.parametrize("allow_scaling", [True, False])
def test_the_search_psi_is_the_reference_table(allow_scaling):
    """The search's psi, normal forms of u k adj(H) e_ij H, is the hand
    table with u alpha k for 1/delta, term order included."""
    table, columns = transform._search_psi(allow_scaling)[:2]
    var = table.var
    one = MultiPoly.const(table, 1)
    k = var("k_scale") if allow_scaling else one
    psi = psi_columns(var("alpha"), var("beta"), var("gamma"), var("delta"),
                      var("epsilon"), var("u_aux") * var("alpha") * k, one)
    expected, _ = transform._image_terms(Operator(3, psi), table)
    assert list(columns.items()) == list(expected.items())


def test_psi_is_proved_before_it_is_handed_out():
    transform._psi_certificate.cache_clear()
    build_psi(AutoParams(alpha=2, delta=3))
    assert transform._psi_certificate.cache_info().currsize == 1
    transform._search_psi.cache_clear()
    transform._psi_certificate.cache_clear()
    transform._search_psi(True)
    assert transform._psi_certificate.cache_info().misses == 1


def the_proof_fails(match):
    transform._psi_certificate.cache_clear()
    try:
        with pytest.raises(ValueError, match=match):
            transform._psi_certificate()
    finally:
        transform._psi_certificate.cache_clear()


@pytest.mark.parametrize("idx", basis_indices(3))
@pytest.mark.parametrize("matrix", [0, 1])
def test_a_wrong_h_or_adj_entry_fails_the_proof(matrix, idx, monkeypatch):
    """psi's formulas are H (0) and adj(H) (1): one wrong entry of either
    breaks adj(H) H = H adj(H) = det(H) 1."""
    matrices = transform._psi_matrices

    def wrong(*args):
        result = matrices(*args)
        result[matrix][idx] = result[matrix][idx] + args[-1]
        return result

    monkeypatch.setattr(transform, "_psi_matrices", wrong)
    the_proof_fails(r"adj\(H\) is not det\(H\)")


# psi sends e_ij into the span of the e_kl with k <= i and l >= j
PSI_CELLS = [(idx, cell) for idx in basis_indices(3)
             for cell in basis_indices(3) if cell[0] <= idx[0] and cell[1] >= idx[1]]


@pytest.mark.parametrize("idx, cell", PSI_CELLS)
def test_a_wrong_psi_cell_fails_the_proof(idx, cell, monkeypatch):
    """Every cell of det(H) psi, side 0 of the conjugation, is proved: the
    corner of H added to any one of them fails the proof."""
    conjugation = transform._psi_conjugation
    idxs = basis_indices(3)

    def wrong(h, adj):
        result = conjugation(h, adj)
        column = result[0][idxs.index(idx)]
        column[:] = [(p, v + h[1, 1] if idxs[p] == cell else v)
                     for p, v in column]
        return result

    monkeypatch.setattr(transform, "_psi_conjugation", wrong)
    the_proof_fails("psi")


@pytest.mark.parametrize("side", [0, 1])
def test_a_wrong_conjugation_by_h_fails_the_proof(side, monkeypatch):
    """The proof covers the int path's adj(H) X H (side 0) and H X adj(H)
    (side 1): one extra entry in either fails it."""
    conjugation = transform._psi_conjugation

    def wrong(h, adj):
        result = list(conjugation(h, adj))
        result[side][4] = result[side][4] + [(0, h[1, 1])]
        return tuple(result)

    monkeypatch.setattr(transform, "_psi_conjugation", wrong)
    the_proof_fails("conjugation by H")


def test_theta_is_one_shared_certified_involution():
    th = theta13()
    assert theta13() is th
    for idx in basis_indices(3):
        assert th.apply(th.apply(e(*idx))) == e(*idx)


R5 = Operator.from_images({"e12": "e11"})


def test_conjugation_by_identity():
    assert conjugate_operator(R5, build_psi(AutoParams())) == R5


def test_conjugation_invertible():
    rng = random.Random(9)
    phi = random_psi(rng)
    op = conjugate_operator(R5, phi)
    inverse_cols = phi.inverse_columns()
    from rbu3.transform import AlgebraMap
    inv = AlgebraMap(3, "automorphism", inverse_cols, phi.columns)
    assert conjugate_operator(op, inv) == R5


def test_conjugation_preserves_residual_psi_and_theta():
    rng = random.Random(11)
    op = Operator.from_images({"e11": "-e13", "e33": "e13", "e23": "e22"})
    assert rb_residual(op).is_zero()
    for _ in range(10):
        assert rb_residual(conjugate_operator(op, random_psi(rng))).is_zero()
    assert rb_residual(conjugate_operator(op, theta13())).is_zero()


def test_conjugation_preserves_residual_identically_in_parameters():
    # conjugating a parametric family by a rational psi keeps the residual
    # zero as a polynomial identity, not just at sampled parameter values
    kappa_family = Operator.from_images(
        {"e11": "kappa*e12", "e22": "e12", "e23": "e11 + e22"},
        params=("kappa",))
    conj = conjugate_operator(kappa_family, random_psi(random.Random(3)))
    assert rb_residual(conj).is_zero()
    assert conj.params() == ("kappa",)


# -- closure trials on cleared int coordinates ------------------------------

IDXS = basis_indices(3)
RATIOS = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 4))
NONZERO = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1),
                    st.integers(1, 4))
SPECIALIZED = {entry.id: entry.specialize(rng=random.Random(entry.id))
               for entry in build_catalog(strict=False)}


@st.composite
def rational_operators(draw):
    """Mostly random sparse weight-zero operators, which are rarely
    Rota-Baxter, and now and then a specialized catalog family."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(list(SPECIALIZED.values())))
    cells = draw(st.dictionaries(st.tuples(st.sampled_from(IDXS),
                                           st.sampled_from(IDXS)),
                                 NONZERO, max_size=10))
    columns = {}
    for (src, pos), value in cells.items():
        columns.setdefault(src, {})[pos] = value
    return Operator(3, {src: UTMatrix(3, entries)
                        for src, entries in columns.items()})


def residual_entries(values, scale):
    """``_residual_values`` of an operator cleared by ``scale`` as
    ``RBResidual.entries``."""
    pairs = [(u, v) for u in IDXS for v in IDXS]
    return {(pairs[t // 6], IDXS[t % 6]): Fraction(c, scale * scale)
            for t, c in values.items() if c}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(rational_operators(), NONZERO, RATIOS, RATIOS, NONZERO, RATIOS)
def test_int_conjugation_equals_the_operator_path(op, a, b, c, d, e):
    terms, D = _cleared(op)
    cleared = transform._cleared_psi(a, b, c, d, e)
    flip = transform._flip_slots(3)
    for phi, conj, scale in (
            (build_psi(AutoParams(a, b, c, d, e)),
             sorted(transform._conjugated_terms(terms, cleared)), D * cleared[2] ** 2),
            (theta13(), sorted((flip[x], v) for x, v in terms), D)):
        oracle = conjugate_operator(op, phi)
        entries = {IDXS.index(src) * 6 + IDXS.index(pos): value
                   for src, image in oracle.columns.items()
                   for pos, value in image.entries.items()}
        assert [(x, Fraction(v, scale)) for x, v in conj] == sorted(entries.items())
        assert residual_entries(_residual_values(3, conj), scale) == \
            rb_residual(oracle).entries


def trial_draws(rng):
    """The scaling factor and psi parameters a closure trial draws, in order."""
    k = transform._nonzero_fraction(rng, 9, 7)
    return k, AutoParams(
        alpha=transform._nonzero_fraction(rng, 6, 4), beta=rng.randint(-5, 5),
        gamma=rng.randint(-5, 5), delta=transform._nonzero_fraction(rng, 6, 4),
        epsilon=rng.randint(-5, 5))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(NONZERO, RATIOS, RATIOS, NONZERO, RATIOS)
@example(Fraction(-2, 3), Fraction(0), Fraction(0), Fraction(3, 4), Fraction(0))
@example(Fraction(1), Fraction(1, 2), Fraction(0), Fraction(-1), Fraction(-3, 4))
def test_the_int_psi_is_build_psi_times_its_scale(a, b, c, d, e):
    """The cleared columns of psi and of its inverse are L^3 a d times the
    reference table's, entry by entry, L the lcm of the parameters'
    denominators, and that factor is what ``_cleared_psi`` returns; a
    conjugation by them is cleared by its square."""
    factor = math.lcm(*(x.denominator for x in (a, b, c, d, e))) ** 3 * a * d
    columns, inverse, got = transform._cleared_psi(a, b, c, d, e)
    assert got == factor and type(got) is int
    one = Fraction(1)
    psi = psi_columns(a, b, c, d, e, 1 / d, one)
    psi_inverse = psi_columns(1 / a, -b / d, (b * e / d - c) / a, 1 / d,
                              -e / (a * d), d, one)
    for side, oracle in ((columns, psi), (inverse, psi_inverse)):
        assert len(side) == len(IDXS)
        for pairs, idx in zip(side, IDXS):
            assert all(type(v) is int for _, v in pairs)
            assert sorted(pairs) == sorted(
                (IDXS.index(pos), factor * v)
                for pos, v in oracle[idx].entries.items())


@settings(derandomize=True, max_examples=200, deadline=None)
@given(rational_operators(), st.integers(0, 2**32))
def test_closure_trial_checks_each_residual_on_its_own_coordinates(op, seed):
    k, params = trial_draws(replay := random.Random(seed))
    psi, D = build_psi(params), _cleared(op)[1]
    psi_scale = transform._cleared_psi(params.alpha, params.beta, params.gamma,
                                       params.delta, params.epsilon)[2] ** 2
    oracles = [(scale_operator(op, k), D * abs(k.numerator)),
               (conjugate_operator(op, psi), D * psi_scale),
               (conjugate_operator(op, theta13()), D)]
    rng = random.Random(seed)
    assert transform.closure_trial(op, rng) == all(
        rb_residual(oracle).is_zero() for oracle, _ in oracles)

    seen = []

    def spy(n, terms):
        seen.append(_residual_values(n, terms))
        return {}  # read as zero, so the trial runs all three checks

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "_residual_values", spy)
        assert transform.closure_trial(op, rng := random.Random(seed))
    assert rng.random() == replay.random()  # the same draws, no more
    assert len(seen) == 3
    for values, (oracle, scale) in zip(seen, oracles):
        assert residual_entries(values, scale) == rb_residual(oracle).entries


@pytest.mark.parametrize("family", ["R5", "R38"])
def test_a_psi_that_is_no_similarity_fails_the_closure_trial(family, monkeypatch):
    """psi's columns paired with the inverse columns of psi at beta + 1 make
    the trial's psi conjugation no similarity, and the trial says so; the
    trial proves psi's identities once per process before it uses them."""
    op = SPECIALIZED[family]
    assert all(transform.closure_trial(op, random.Random(seed)) for seed in range(5))
    transform._psi_certificate.cache_clear()
    assert transform.closure_trial(op, random.Random(0))
    assert transform._psi_certificate.cache_info().misses == 1
    real = transform._cleared_psi
    monkeypatch.setattr(transform, "_cleared_psi", lambda a, b, c, d, e: (
        real(a, b, c, d, e)[0], real(a, b + 1, c, d, e)[1], 1))
    assert not any(transform.closure_trial(op, random.Random(seed))
                   for seed in range(5))


def test_closure_trial_fails_r13_and_refuses_a_weight():
    assert not transform.closure_trial(SPECIALIZED["R13"], random.Random(0))
    weighted = Operator(3, SPECIALIZED["R5"].columns, weight=1)
    with pytest.raises(ValueError, match="weight zero"):
        transform.closure_trial(weighted, random.Random(0))


def test_closure_trial_refuses_an_operator_outside_u3():
    """psi is U_3's: a Rota-Baxter operator of U_2 gets no trial, not a
    reported failure."""
    op = Operator.from_images({"e12": "e11"}, n=2)
    assert rb_residual(op).is_zero()
    with pytest.raises(ValueError, match="specific to U_3"):
        transform.closure_trial(op, random.Random(0))


AB = VarTable(["a", "b"])
FLIP_VALUES = [Fraction(1), Fraction(-2), Fraction(3, 4), AB.var("a"),
               AB.var("a") * AB.var("b") - 1, 2 * AB.var("b")]


@st.composite
def operators(draw):
    """Rational and parametric operators, with zero images and entries in
    drawn order."""
    cells = st.dictionaries(st.sampled_from(basis_indices(3)),
                            st.sampled_from(FLIP_VALUES), max_size=4)
    images = draw(st.lists(st.sampled_from(basis_indices(3)), unique=True))
    return Operator(3, {idx: UTMatrix(3, draw(cells)) for idx in images})


def relabelled(op):
    """op with every index e_ij read as e_{4-j,4-i}, entries in their order."""
    flip = lambda idx: (4 - idx[1], 4 - idx[0])
    return [(idx, [(flip(cell), value)
                   for cell, value in op.columns[flip(idx)].entries.items()])
            for idx in basis_indices(3) if flip(idx) in op.columns]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(operators())
def test_conjugating_by_the_flip_relabels_the_basis(op):
    flipped = conjugate_operator(op, theta13())
    got = [(idx, list(image.entries.items()))
           for idx, image in flipped.columns.items()]
    expected = relabelled(op)
    assert got == expected
    assert [type(v) for _, cells in got for _, v in cells] == \
        [type(v) for _, cells in expected for _, v in cells]
    assert flipped.weight == op.weight


@settings(derandomize=True, max_examples=200, deadline=None)
@given(operators(), st.sampled_from([0, 2, "1/3"]))
def test_a_witness_flips_by_relabelling(op, weight):
    """A witness's flip step gives ``conjugate_operator``'s operator, with
    columns, entries and entry types in the same order, and conjugates
    nothing."""
    op = Operator(3, op.columns, weight)
    expected = conjugate_operator(op, theta13())
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "conjugate_operator", None)
        flipped = Witness((ThetaStep(),)).transform_operator(op)
    assert flipped == expected and flipped.weight == expected.weight
    items = lambda o: [(idx, [(cell, type(v)) for cell, v in image.entries.items()])
                       for idx, image in o.columns.items()]
    assert items(flipped) == items(expected)


def composed(op, witness):
    """A witness's action as a composition of operator maps: conjugation by
    each step's ``AlgebraMap``, then ``scale_operator``."""
    for step in witness.steps:
        phi = theta13(op.n) if isinstance(step, ThetaStep) else build_psi(step.params)
        op = conjugate_operator(op, phi)
    return op if witness.scalar == 1 else scale_operator(op, witness.scalar)


def same_operator(got, expected):
    """Equal, with the same weight and parameters, and each column's entries
    and entry types in the same order."""
    items = lambda o: [(idx, [(cell, value, type(value))
                              for cell, value in image.entries.items()])
                       for idx, image in sorted(o.columns.items())]
    return (got == expected and got.weight == expected.weight
            and got.params() == expected.params() and items(got) == items(expected))


WITNESS_STEPS = st.lists(st.just(ThetaStep()) | st.builds(
    lambda *params: PsiStep(AutoParams(*params)),
    NONZERO, RATIOS, RATIOS, NONZERO, RATIOS), max_size=3)


@pytest.mark.parametrize("family", catalog_ids())
@settings(derandomize=True, max_examples=8, deadline=None)
@given(steps=WITNESS_STEPS, scalar=st.just(Fraction(1)) | NONZERO)
def test_a_witness_replays_each_family_as_the_composition(family, steps, scalar):
    """On the int slots, a witness gives the composition's operator for
    every catalog family, parametric ones included."""
    op = get_entry(family).operator
    witness = Witness(tuple(steps), scalar)
    assert same_operator(witness.transform_operator(op), composed(op, witness))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(operators(), st.sampled_from([0, Fraction(1, 2), -3]), WITNESS_STEPS,
       st.just(Fraction(1)) | NONZERO)
def test_a_witness_replays_as_the_composition(op, weight, steps, scalar):
    """Rational and parametric operators at weights 0, 1/2 and -3: k != 1
    keeps the identity at weight zero only."""
    op = Operator(3, op.columns, weight)
    witness = Witness(tuple(steps), scalar if not weight else Fraction(1))
    assert same_operator(witness.transform_operator(op), composed(op, witness))


@pytest.mark.parametrize("n, steps, scalar, weight", [
    (2, (PsiStep(AutoParams(2)),), 1, 0),  # psi is U_3's
    (2, (ThetaStep(), PsiStep(AutoParams(2))), 1, 0),
    (3, (PsiStep(AutoParams(2)),), Fraction(3), Fraction(1, 2)),
    (3, (ThetaStep(),), Fraction(-1), -3),
    (3, (), Fraction(0), 0)])
def test_a_witness_raises_as_the_composition(n, steps, scalar, weight):
    op = Operator(n, {(1, 1): e(1, 2) if n == 3 else UTMatrix.basis(2, 1, 2)},
                  weight)
    witness = Witness(steps, scalar)
    with pytest.raises(ValueError) as expected:
        composed(op, witness)
    with pytest.raises(ValueError) as got:
        witness.transform_operator(op)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize("n", [2, 4])
def test_a_flip_witness_outside_u3_is_the_flip_conjugation(n):
    table = VarTable(["a"])
    op = Operator(n, {(1, 1): UTMatrix(n, {(1, n): Fraction(2, 3), (2, 2): table.var("a")}),
                      (1, 2): UTMatrix(n, {(2, n): Fraction(-5)}),
                      (n, n): UTMatrix(n, {(1, 1): table.var("a") + 1})}, Fraction(1, 2))
    got = Witness((ThetaStep(),)).transform_operator(op)
    assert same_operator(got, conjugate_operator(op, theta13(n)))
    assert Witness((ThetaStep(), ThetaStep())).transform_operator(op) == op


@settings(derandomize=True, max_examples=200, deadline=None)
@given(operators())
def test_the_search_flips_the_target_by_relabelling_its_terms(op):
    """The search's flipped target is the target's image terms relabelled:
    the same keys, cells in the same order and the same pair lists as the
    image terms of the operator ``conjugate_operator`` flips."""
    source = certified_families()["R31"]
    builds = []
    real_builder = transform._search_generators
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "_search_generators",
                      lambda *args: builds.append(args) or real_builder(*args))
        patch.setattr(transform, "_psi_only_search",
                      lambda *args: transform.ConjugationSearch("none"))
        assert find_conjugation(source, op).status == "none"
    params = VarTable(dict.fromkeys(source.params() + op.params()))
    (_, plain, _), (_, flipped, _) = builds
    D = common_denominator(source, op)
    assert plain == image_terms(op, params, D)
    expected = image_terms(conjugate_operator(op, theta13()), params, D)
    assert flipped == expected


def test_a_repeated_disjoint_search_flips_without_products(monkeypatch):
    """Once its certificates are cached, a ``disjoint`` search of a
    polynomial target with the flip multiplies no polynomial and conjugates
    no operator."""
    fam = certified_families()
    source, target = fam["R5"], fam["R31"]
    assert target.params() == ("kappa",)
    assert find_conjugation(source, target, allow_theta=False).status == "disjoint"
    assert find_conjugation(source, target).status == "disjoint"  # warm-up
    calls = []
    real_mul = MultiPoly.__mul__
    real_conjugate = transform.conjugate_operator

    def counting(self, other):
        calls.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(MultiPoly, "__mul__", counting)
    monkeypatch.setattr(MultiPoly, "__rmul__", counting)
    monkeypatch.setattr(transform, "conjugate_operator",
                        lambda *args: calls.append(args) or real_conjugate(*args))
    result = find_conjugation(source, target, allow_theta=True)
    assert result.status == "disjoint" and len(result.certificate) == 2
    assert calls == []


def test_in_text_conjugation_to_single_e22_image():
    # R(e23) = e22 + t e12 conjugated with beta = -t lands on R(e23) = e22
    t = Fraction(2)
    src = Operator(3, {(2, 3): UTMatrix(3, {(2, 2): Fraction(1), (1, 2): t})})
    conj = conjugate_operator(src, build_psi(AutoParams(beta=-t)))
    assert conj == Operator.from_images({"e23": "e22"})


def test_flip_carries_span_family_to_mirror_span():
    # images in L(e12,e13) with kernel {e12,e13} flip to images in L(e13,e23)
    op = Operator.from_images({"e22": "2*e12 - e13", "e23": "e12"})
    flipped = conjugate_operator(op, theta13())
    for idx in basis_indices(3):
        img = flipped.image(idx)
        assert all(pos in ((1, 3), (2, 3)) for pos in img.entries)
    assert flipped.apply(e(2, 3)).is_zero() and flipped.apply(e(1, 3)).is_zero()


# -- canonical forms ---------------------------------------------------------


def test_canonicalize_nilpotent_table():
    cf = canonicalize_nilpotent(e(2, 3))
    assert cf.label == "e12"
    assert any(isinstance(s, ThetaStep) for s in cf.witness.steps)

    cf = canonicalize_nilpotent(parse_matrix("2*e12 + 6*e13"))
    assert cf.label == "e12"
    assert cf.witness.steps[0].params.delta == 2

    cf = canonicalize_nilpotent(parse_matrix("e12 + e23"))
    assert cf.label == "e12+e23"

    assert canonicalize_nilpotent(UTMatrix.zero(3)).label == "zero"
    assert canonicalize_nilpotent(parse_matrix("-5*e13")).label == "e13"


def test_canonicalize_nilpotent_rejects_non_nilpotent():
    with pytest.raises(ValueError):
        canonicalize_nilpotent(e(1, 1))


def test_canonicalize_nilpotent_witness_certifies(subtests=None):
    rng = random.Random(13)
    labels = set()
    for _ in range(100):
        entries = {}
        for idx in ((1, 2), (1, 3), (2, 3)):
            if rng.random() < 0.7:
                entries[idx] = Fraction(rng.randint(-6, 6), rng.randint(1, 3))
        m = UTMatrix(3, entries)
        cf = canonicalize_nilpotent(m)
        assert cf.witness.act_element(m) == cf.form
        labels.add(cf.label)
    assert labels == {"zero", "e12", "e13", "e12+e23"}


def test_canonicalize_idempotent_rank_one():
    cf = canonicalize_idempotent(parse_matrix("e11 + 3*e12 + 5*e13"))
    assert cf.label == "e11"
    assert cf.witness.steps[0].params.beta == 3
    assert cf.witness.steps[0].params.gamma == 5

    cf = canonicalize_idempotent(e(3, 3))
    assert cf.label == "e11"
    assert isinstance(cf.witness.steps[0], ThetaStep)

    cf = canonicalize_idempotent(parse_matrix("e22 + 2*e12 + 2*e13 + e23"))
    assert cf.label == "e22"


def test_canonicalize_idempotent_rank_two():
    cf = canonicalize_idempotent(parse_matrix("e11 + e22 + 4*e13 + 7*e23"))
    assert cf.label == "e11+e22"
    assert (cf.witness.steps[0].params.gamma, cf.witness.steps[0].params.epsilon) \
        == (4, 7)
    cf = canonicalize_idempotent(parse_matrix("e11 + e33 + 2*e12 - 2*e13 + e23"))
    assert cf.label == "e11+e33"
    cf = canonicalize_idempotent(parse_matrix("e22 + e33 + 3*e12 + e13"))
    assert cf.label == "e11+e22"


# The flipped cases, as their hand derivation has them: an input, from two
# rationals p and q != 0; its canonicalizer and form; and the psi that follows
# theta13 in its witness.
FLIPPED_CASES = {
    "q e23 + p e13": (lambda p, q: UTMatrix(3, {(2, 3): q, (1, 3): p}),
                      canonicalize_nilpotent, "e12",
                      lambda p, q: AutoParams(delta=q, epsilon=p)),
    "e33 + p e13 + q e23": (
        lambda p, q: UTMatrix(3, {(3, 3): 1, (1, 3): p, (2, 3): q}),
        canonicalize_idempotent, "e11",
        lambda p, q: AutoParams(beta=q, gamma=p)),
    "e22 + e33 + q e12 + p e13": (
        lambda p, q: UTMatrix(3, {(2, 2): 1, (3, 3): 1, (1, 2): q, (1, 3): p}),
        canonicalize_idempotent, "e11+e22",
        lambda p, q: AutoParams(gamma=p, epsilon=q)),
}


@pytest.mark.parametrize("case", FLIPPED_CASES)
@settings(derandomize=True, max_examples=60, deadline=None)
@given(p=st.fractions(-9, 9, max_denominator=4),
       q=st.fractions(-9, 9, max_denominator=4).filter(bool))
def test_flipped_canonical_forms_keep_the_hand_derived_witness(case, p, q):
    """An input whose form is reached through theta13 gets the witness its
    hand derivation gives: theta13, then that psi."""
    build, canonicalize, label, oracle = FLIPPED_CASES[case]
    cf = canonicalize(build(p, q))
    assert cf.label == label
    assert cf.witness.to_json() == {
        "maps": ["theta13", {"psi": oracle(p, q).to_json()}], "scalar": "1"}


def test_canonicalize_idempotent_rejects_bad_input():
    with pytest.raises(ValueError):
        canonicalize_idempotent(e(1, 2))
    with pytest.raises(ValueError):
        canonicalize_idempotent(UTMatrix.unit(3))  # rank 3
    with pytest.raises(ValueError):
        canonicalize_idempotent(UTMatrix.zero(3))  # rank 0


def test_idempotent_form_preserves_rank():
    for text in ("e11 + 3*e12 + 5*e13", "e22 + 2*e23", "e11 + e22 + 4*e13"):
        m = parse_matrix(text)
        cf = canonicalize_idempotent(m)
        assert cf.form.is_idempotent() and cf.form.rank() == m.rank()


# -- conjugation search --------------------------------------------------------


def test_find_conjugation_identity_case():
    result = find_conjugation(R5, R5)
    assert result.status == "found"
    assert result.witness.transform_operator(R5) == R5


def rechecks(certificate):
    """A unit certificate rechecks its own combination; a Groebner one must
    verify as a basis and be [1]."""
    if isinstance(certificate, UnitCertificate):
        return certificate.check()
    basis = certificate.basis
    return (certificate.verify() and len(basis) == 1
            and basis[0].is_constant())


def test_find_conjugation_disjoint_certificate():
    r6 = Operator.from_images({"e13": "e11"})
    result = find_conjugation(R5, r6, allow_theta=False)
    assert result.status == "disjoint"
    (certificate,) = result.certificate
    assert isinstance(certificate, UnitCertificate) and certificate.check()
    # with the flip, one certificate per searched variant, in variant order
    result = find_conjugation(R5, r6)
    assert result.status == "disjoint" and len(result.certificate) == 2
    assert all(rechecks(c) for c in result.certificate)


def test_both_variants_of_a_search_share_one_deadline(fake_clock, monkeypatch):
    """``find_conjugation`` starts its limits once: under a clock that moves
    one unit a read, a deadline just above what the psi-only variant reads
    stops the variant with the flip, while one unstarted ``Limits`` reused
    across calls, as a module-level budget is, gives each call its own."""
    # both operators are fixed by the flip, so each variant builds the same
    # system, and its basis is [1]
    source = Operator.from_images({"e12": "e13 + e22", "e23": "e13 + e22"})
    target = Operator.from_images({"e12": "e12 + e22", "e23": "e22 + e23"})
    assert all(conjugate_operator(op, theta13()) == op for op in (source, target))
    reads = []  # clock reads inside each Groebner run
    real_buchberger = transform.buchberger

    def spy(system, limits=None):
        before = fake_clock.now
        try:
            return real_buchberger(system, limits)
        finally:
            reads.append(fake_clock.now - before)

    monkeypatch.setattr(transform, "buchberger", spy)
    result = find_conjugation(source, target, limits=Limits(deadline=10.0**6))
    assert result.status == "disjoint" and len(result.certificate) == 2
    first, second = reads
    assert first == second > 0
    budget = Limits(deadline=first + 1)
    with pytest.raises(ResourceLimitExceeded, match="deadline exceeded"):
        find_conjugation(source, target, limits=budget)
    assert len(reads) == 4  # the second variant was stopped, not skipped
    for _ in range(2):
        assert find_conjugation(source, target, allow_theta=False,
                                limits=budget).status == "disjoint"


def test_the_back_substitution_reads_the_deadline(fake_clock, monkeypatch):
    """A search that is ``found`` without limits raises, instead of
    answering, when the deadline passes after its Groebner run: each
    back-substitution candidate reads the started limits."""
    assert find_conjugation(R5, R5, allow_theta=False).status == "found"
    runs = []  # (clock reads, basis) of each Groebner run
    real_buchberger = transform.buchberger

    def spy(system, limits=None):
        before = fake_clock.now
        gb = real_buchberger(system, limits)
        runs.append((fake_clock.now - before, gb.basis))
        return gb

    monkeypatch.setattr(transform, "buchberger", spy)
    assert find_conjugation(R5, R5, allow_theta=False,
                            limits=Limits(deadline=10.0**6)).status == "found"
    ((reads, basis),) = runs
    with pytest.raises(ResourceLimitExceeded, match="deadline exceeded") as stop:
        find_conjugation(R5, R5, allow_theta=False,
                         limits=Limits(deadline=reads + 1))
    assert len(runs) == 2  # the Groebner run finished; a candidate stopped
    assert stop.value.partial == list(basis)


def test_an_exhausted_candidate_budget_answers_none(monkeypatch):
    """A planted target that the search finds, searched again with a budget
    of one candidate per back-substitution: the first decrement empties it,
    so no point is replayed, and the answer is ``none`` with no witness,
    an incomplete search and not a disjoint one."""
    source = certified_families()["R31"].substitute_params({"kappa": Fraction(2, 3)})
    psi = AutoParams(alpha=Fraction(3, 2), beta=Fraction(1), gamma=Fraction(-2),
                     delta=Fraction(-5, 4), epsilon=Fraction(3))
    target = Witness((PsiStep(psi),)).transform_operator(source)
    found = find_conjugation(source, target)
    assert found.status == "found"
    assert found.witness.transform_operator(source) == target
    monkeypatch.setattr(transform, "_BUDGET", 1)
    search = find_conjugation(source, target)
    assert (search.status, search.witness, search.certificate) == ("none", None, None)


def test_a_tampered_unit_certificate_fails_its_recheck():
    r6 = Operator.from_images({"e13": "e11"})
    (certificate,) = find_conjugation(R5, r6, allow_theta=False).certificate
    (c1, g1), (c2, g2) = certificate.pairs
    assert certificate.check()
    assert not UnitCertificate(((c1 * 2, g1), (c2, g2))).check()
    assert not UnitCertificate(((c1, g1), (c2 * 2, g2))).check()
    # another generator of the same system in place of the certified one
    others = [g for g in built_system(R5, r6).gens if g not in (g1, g2)]
    assert others
    for other in others:
        assert not UnitCertificate(((c1, other), (c2, g2))).check()


def test_a_failed_recheck_raises_and_caches_nothing(monkeypatch):
    transform._unit_certificate.cache_clear()
    monkeypatch.setattr(UnitCertificate, "check", lambda self: False)
    r6 = Operator.from_images({"e13": "e11"})
    with pytest.raises(AssertionError, match="recheck"):
        find_conjugation(R5, r6)
    assert transform._unit_certificate.cache_info().currsize == 0
    monkeypatch.undo()
    # the next search builds the certificate again, and it rechecks
    result = find_conjugation(R5, r6)
    assert result.status == "disjoint"
    assert all(c.check() for c in result.certificate)


def test_find_conjugation_with_flip():
    op = Operator.from_images({"e22": "e12"})
    target = conjugate_operator(op, theta13())
    result = find_conjugation(op, target, allow_theta=True)
    assert result.status == "found"
    assert result.witness.transform_operator(op) == target


@pytest.mark.parametrize("allow_theta", [False, True])
@pytest.mark.parametrize("allow_scaling", [False, True])
def test_conjugation_never_changes_the_weight(allow_theta, allow_scaling):
    # the diagonal projection is Rota-Baxter at weight -1, not at weight 0;
    # equal images at different weights are not conjugate
    images = {(i, i): e(i, i) for i in (1, 2, 3)}
    weighted = Operator(3, images, Fraction(-1))
    plain = Operator(3, images)
    for a, b in ((weighted, plain), (plain, weighted)):
        result = find_conjugation(a, b, allow_theta=allow_theta,
                                  allow_scaling=allow_scaling)
        assert result.status != "found", (a.weight, b.weight)


@pytest.mark.parametrize("allow_theta", [False, True])
@pytest.mark.parametrize("allow_scaling", [False, True])
def test_mixed_weights_are_refused_before_any_system(allow_theta, allow_scaling,
                                                     monkeypatch):
    calls = []
    monkeypatch.setattr(transform, "buchberger",
                        lambda *args, **kwargs: calls.append(args))
    images = {(i, i): e(i, i) for i in (1, 2, 3)}
    weighted = Operator(3, images, Fraction(-1))
    plain = Operator(3, images)
    for a, b in ((weighted, plain), (plain, weighted)):
        result = find_conjugation(a, b, allow_theta=allow_theta,
                                  allow_scaling=allow_scaling)
        assert result.status == "none"
        assert result.witness is None and result.certificate is None
    assert calls == []


def test_a_nonzero_weight_fixes_the_scale_to_one():
    # 2P has weight -2 as soon as P has weight -1, so P and 2P, both
    # declared at weight -1, are not related by a scale; the search answers
    # without a scaled witness, and P against itself is still found
    images = {(i, i): e(i, i) for i in (1, 2, 3)}
    weighted = Operator(3, images, Fraction(-1))
    doubled = Operator(3, {idx: m.scale(2) for idx, m in images.items()},
                       Fraction(-1))
    result = find_conjugation(weighted, doubled)
    assert result.status == "disjoint" and result.witness is None
    result = find_conjugation(weighted, weighted)
    assert result.status == "found"
    assert result.witness.scalar == 1
    assert result.witness.transform_operator(weighted) == weighted


def test_search_polynomials_hold_fractions(monkeypatch):
    """The search builds on ints where coefficients are integral; every
    generator and basis it hands on still holds ``Fraction`` coefficients."""
    seen = []
    real_buchberger = transform.buchberger

    def spy(system, limits=None):
        gb = real_buchberger(system, limits)
        seen.extend(system.gens + gb.basis)
        return gb

    monkeypatch.setattr(transform, "buchberger", spy)
    source, target = planted_target()
    assert find_conjugation(source, target).status == "found"
    r6 = Operator.from_images({"e13": "e11"})
    result = find_conjugation(R5, r6)
    assert result.status == "disjoint"
    certified = [p for c in result.certificate for pair in c.pairs for p in pair]
    assert len(certified) == 8
    seen.extend(certified)
    assert seen and all(type(c) is Fraction
                        for g in seen for c in g.terms.values())


def test_witness_json_round_trip():
    w = Witness((ThetaStep(), PsiStep(AutoParams(alpha=Fraction(1, 2)))),
                Fraction(3))
    again = Witness.from_json(w.to_json())
    assert again == w


@pytest.mark.parametrize("data, message", [
    ({"maps": [{"psi": {"zeta": "1"}}]}, "bad witness step {'psi': {'zeta': '1'}}"),
    ({"maps": [{"psi": "1"}]}, "bad witness step {'psi': '1'}"),
    ({"maps": ["theta13", "theta"]}, "bad witness step 'theta'"),
    ({"maps": "theta13"}, "bad witness maps 'theta13'"),
    ({"maps": [], "scalar": "0"}, "bad witness scalar '0'"),
])
def test_witness_from_json_refuses_a_bad_step_or_scalar(data, message):
    with pytest.raises(ValueError) as info:
        Witness.from_json(data)
    assert str(info.value) == message


# -- rational roots: the Fraction evaluation --------------------------------------


def fraction_rational_roots(coeffs):
    """``_rational_roots`` evaluating each candidate ``p/q`` as a sum of
    ``Fraction`` powers, for every divisor pair."""
    if not coeffs:
        return []
    dens = 1
    for c in coeffs.values():
        dens = dens * c.denominator // math.gcd(dens, c.denominator)
    ints = {d: int(c * dens) for d, c in coeffs.items()}
    low = min(d for d, c in ints.items() if c)
    roots = []
    if low > 0:
        roots.append(Fraction(0))
        ints = {d - low: c for d, c in ints.items() if c}
    a0 = abs(ints.get(0, 0))
    an = abs(ints[max(ints)])
    if a0 == 0 or an == 0:
        return roots
    for p in transform._divisors(a0):
        for q in transform._divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand in roots:
                    continue
                if not sum(c * cand**d for d, c in ints.items()):
                    roots.append(cand)
    return sorted(roots)


@st.composite
def root_problems(draw):
    """{degree: Fraction} of degree 1 to 4: rational linear factors, maybe an
    irreducible quadratic, a power of x for the zero root, and a non-unit
    content."""
    def times(poly, factor):
        out = {}
        for d, c in poly.items():
            for d2, f in factor.items():
                out[d + d2] = out.get(d + d2, 0) + c * f
        return out

    left = draw(st.integers(1, 4))
    poly = {0: Fraction(1)}
    if left >= 2 and draw(st.booleans()):
        poly = times(poly, {0: Fraction(draw(st.sampled_from([1, 2, 3, -2]))),
                            2: Fraction(1)})
        left -= 2
    zeros = draw(st.integers(0, left))
    poly = times(poly, {zeros: Fraction(1)})
    for _ in range(left - zeros):
        q = draw(st.integers(1, 6))
        poly = times(poly, {0: -Fraction(draw(st.integers(-12, 12)), q),
                            1: Fraction(1)})
    content = Fraction(draw(st.sampled_from([1, -1, 2, 6, -15])),
                       draw(st.sampled_from([1, 4, 7])))
    return {d: c * content for d, c in poly.items()}


@settings(derandomize=True, max_examples=300, deadline=None)
@given(root_problems())
@example({1: Fraction(6), 0: Fraction(-4)})  # non-unit content, root 2/3
@example({4: Fraction(3, 2), 2: Fraction(-3, 2)})  # roots -1, 0, 1
@example({3: Fraction(2), 0: Fraction(0)})  # a zero coefficient kept
# linear: the one root -a0/a1, and the zero root alone or beside it
@example({1: Fraction(7), 0: Fraction(21, 2)})  # root -3/2
@example({1: Fraction(-1)})  # root 0
@example({1: Fraction(-3, 5), 0: Fraction(0)})  # root 0, a zero constant kept
@example({2: Fraction(4), 1: Fraction(-6)})  # roots 0 and 3/2
def test_rational_roots_match_the_fraction_evaluation(coeffs):
    assert transform._rational_roots(coeffs) == fraction_rational_roots(coeffs)


def test_a_linear_polynomial_walks_no_divisors(monkeypatch):
    monkeypatch.setattr(transform, "_divisors", None)
    for coeffs, roots in (
            ({1: Fraction(6), 0: Fraction(-4)}, [Fraction(2, 3)]),
            ({1: Fraction(-1)}, [0]),
            ({3: Fraction(2)}, [0]),
            ({2: Fraction(4), 1: Fraction(-6)}, [0, Fraction(3, 2)]),
            # past the cap on listed divisors
            ({1: Fraction(3), 0: Fraction(-10**12 - 39)}, [Fraction(10**12 + 39, 3)])):
        assert transform._rational_roots(coeffs) == roots


# -- the search's generators against the matrix-product construction ----------


def reference_combine(columns, x):
    total = UTMatrix.zero(3)
    for idx, coeff in x.entries.items():
        total = total + columns[idx].scale(coeff)
    return total


def reference_generators(source, target, allow_scaling):
    """The relation, then ``R psi - k psi S`` built as products of
    polynomial matrices over one table of unknowns and parameters, each cell
    split by parameter monomial, then moved to the table of unknowns."""
    names = transform._SEARCH_VARS if allow_scaling else tuple(
        v for v in transform._SEARCH_VARS if v != "k_scale")
    param_names = tuple(source.params()) + tuple(
        p for p in target.params() if p not in source.params())
    table = VarTable(names + param_names)
    var = table.var
    one = MultiPoly.const(table, 1)
    k = var("k_scale") if allow_scaling else one
    psi_cols = psi_columns(
        var("alpha"), var("beta"), var("gamma"), var("delta"), var("epsilon"),
        var("u_aux") * var("alpha") * k, one)

    def lift(matrix):
        entries = {}
        for key, value in matrix.entries.items():
            if isinstance(value, MultiPoly):
                entries[key] = value.retable(table)
            else:
                entries[key] = MultiPoly.const(table, value)
        return UTMatrix(3, entries)

    gens = [var("u_aux") * var("alpha") * var("delta") * k - 1]
    n_unknown = len(names)
    source_cols = {idx: lift(source.image(idx)) for idx in basis_indices(3)}
    for idx in basis_indices(3):
        lhs = reference_combine(source_cols, psi_cols[idx])
        rhs = reference_combine(psi_cols, lift(target.image(idx))).scale(k)
        for value in (lhs - rhs).entries.values():
            buckets = {}
            for mono, coeff in value.terms.items():
                unknown_part = mono[:n_unknown] + (0,) * len(param_names)
                buckets.setdefault(mono[n_unknown:], {})[unknown_part] = coeff
            gens.extend(MultiPoly(table, terms) for terms in buckets.values())
    unknown_table = VarTable(names)
    return tuple(dict.fromkeys(g.retable(unknown_table) for g in gens))


def common_denominator(*ops):
    """The lcm of the denominators of every coefficient of the operators."""
    return math.lcm(1, *(
        c.denominator for op in ops for image in op.columns.values()
        for v in image.entries.values()
        for c in (v.terms.values() if isinstance(v, MultiPoly) else (v,))))


def image_terms(op, params, D):
    """``_image_terms`` of ``op`` times ``D``, every coefficient an int;
    the denominators it reports clear the operator's."""
    images, den = transform._image_terms(op, params)
    assert D % den == 0 and den == common_denominator(op)
    if D == 1:  # passed on as read
        return images
    scaled = {idx: [(cell, [(r, c * D) for r, c in pairs]) for cell, pairs in cells]
              for idx, cells in images.items()}
    assert all(c.denominator == 1 for cells in scaled.values()
               for _, pairs in cells for _, c in pairs)
    return {idx: [(cell, [(r, int(c)) for r, c in pairs]) for cell, pairs in cells]
            for idx, cells in scaled.items()}


def builder_args(source, target, adjusted, allow_scaling):
    """The arguments ``find_conjugation`` gives ``_search_generators`` for
    the system of ``source`` against ``adjusted``, ``target`` or its flip:
    both operators' image terms over the parameters of source and target,
    times the common denominator of both."""
    params = VarTable(tuple(source.params()) + tuple(
        p for p in target.params() if p not in source.params()))
    D = common_denominator(source, target)
    return (image_terms(source, params, D), image_terms(adjusted, params, D),
            allow_scaling)


INVERTIBLE = {"u_aux", "k_scale", "alpha", "delta"}


def normalized(gens):
    """The system ``buchberger`` receives for the raw generators ``gens``:
    each over the largest monomial in u, k, alpha and delta that divides
    it, made monic with its terms in descending lex order, the first of
    equal ones kept."""
    out = []
    for g in gens:
        names = g.table.names
        low = [min(m[i] for m in g.terms) if names[i] in INVERTIBLE else 0
               for i in range(len(names))]
        terms = sorted(((tuple(a - b for a, b in zip(m, low)), c)
                        for m, c in g.terms.items()), reverse=True)
        monic = MultiPoly(g.table, {m: c / terms[0][1] for m, c in terms})
        if monic not in out:
            out.append(monic)
    return out


def built_system(source, adjusted, allow_scaling=True):
    """The search's full system, every generator the builder yields, as
    ``buchberger`` would receive it without the early stop."""
    table = transform._search_psi(allow_scaling)[0]
    gens = transform._search_generators(
        *builder_args(source, adjusted, adjusted, allow_scaling))
    return PolySystem(table, tuple(dict.fromkeys(MultiPoly(table, t)
                                                 for t in gens)), lex())


def as_terms(gens):
    """Generators with their term order, which the engine's input keeps."""
    return [(g.table, list(g.terms.items())) for g in gens]


@cache
def certified_families():
    return {e.id: e.operator for e in build_catalog(strict=False)
            if e.residual_zero}


def renamed(op, old, new):
    data = op.to_json()
    data["images"] = {k: v.replace(old, new) for k, v in data["images"].items()}
    data["params"] = [new if p == old else p for p in data["params"]]
    return Operator.from_json(data)


def planted_target():
    source = certified_families()["R31"].substitute_params({"kappa": Fraction(-3, 2)})
    witness = Witness((PsiStep(AutoParams(alpha=Fraction(5, 2), beta=3,
                                          gamma=-1, delta=Fraction(-2, 3),
                                          epsilon=4)), ThetaStep()),
                      Fraction(-7, 4))
    return source, witness.transform_operator(source)


def search_cases():
    """name -> (source, target, allow_theta, allow_scaling, systems searched)."""
    fam = certified_families()
    return {
        "R5-R5": (fam["R5"], fam["R5"], True, True, 1),
        "R31-R39": (fam["R31"], fam["R39"], True, True, 2),
        "R15-theta-R16": (fam["R15"], conjugate_operator(fam["R16"], theta13()),
                            False, True, 1),
        "R22-R24-unscaled": (fam["R22"], fam["R24"], True, False, 2),
        "planted-R31": planted_target() + (True, True, 2),
        "a-b": (renamed(fam["R31"], "kappa", "a"), renamed(fam["R39"], "kappa", "b"),
                 True, True, 2),
        "R1-R40": (fam["R1"], fam["R40"], True, True, 2),
        # several parameter terms in one cell, met by psi's two-term cells
        "shared-a-new-b": (
            renamed(fam["R31"], "kappa", "a"),
            Operator.from_images({"e11": "a*e33 - b*e33 + 2*e12",
                                  "e23": "b*e11 + e13 - a^2*b*e13",
                                  "e33": "e22 + a*e22"}, params=("a", "b")),
            True, True, 2),
    }


@pytest.mark.parametrize("name", list(search_cases()))
def test_search_generators_match_the_matrix_product_construction(name, monkeypatch):
    source, target, allow_theta, allow_scaling, searched = search_cases()[name]
    builds = []
    systems = {}  # build number -> the system its search handed to buchberger
    real_builder = transform._search_generators
    real_buchberger = transform.buchberger

    def spy(*args):
        builds.append(args)
        return real_builder(*args)

    def buchberger_spy(system, limits=None):
        systems[len(builds) - 1] = system
        return real_buchberger(system, limits)

    monkeypatch.setattr(transform, "_search_generators", spy)
    monkeypatch.setattr(transform, "buchberger", buchberger_spy)
    find_conjugation(source, target, allow_theta=allow_theta,
                     allow_scaling=allow_scaling)
    monkeypatch.undo()
    assert len(builds) == searched
    # the second search, when there is one, is against the flipped target
    targets = [target, conjugate_operator(target, theta13())]
    D = common_denominator(source, target)
    for i, (args, adjusted) in enumerate(zip(builds, targets)):
        assert args == builder_args(source, target, adjusted, allow_scaling)
        assert all(type(c) is int for images in args[:2] for cells in images.values()
                   for _, pairs in cells for _, c in pairs)
        gens = built_system(source, adjusted, allow_scaling).gens
        # the relation, then D times each generator of the rational system
        relation, *rest = reference_generators(source, adjusted, allow_scaling)
        expected = (relation, *(g * D for g in rest))
        assert gens == expected
        assert as_terms(gens) == as_terms(expected)
        if i in systems:  # the search ran the full system
            assert as_terms(systems[i].gens) == as_terms(normalized(expected))


FOUND_PAIRS = {"R15|R16", "R22|R24", "R31|R39", "R32|R38", "R34|R35",
               "R34|R36", "R35|R36"}


# searches that reach the Groebner engine: one per found pair, and one each
# for the unit systems of R7|R30, R10|R19, R15|R29 and R16|R29, which hold
# no one-term unit generator
GROEBNER_SEARCHES = 11
# the distinct one-term unit generators behind the 734 disjoint pairs: each
# certificate is built and rechecked once, however many searches meet it
UNIT_CERTIFICATES = 14


def test_every_certified_family_pair(monkeypatch):
    calls = []
    real_buchberger = transform.buchberger
    proofs = []  # the rechecks made inside the searches
    real_check = UnitCertificate.check

    def spy(system, limits=None):
        calls.append(system)
        return real_buchberger(system, limits)

    def counting_check(self):
        proofs.append(self)
        return real_check(self)

    monkeypatch.setattr(transform, "buchberger", spy)
    monkeypatch.setattr(UnitCertificate, "check", counting_check)
    transform._unit_certificate.cache_clear()
    families = list(certified_families().items())
    statuses = {}
    searched = 0
    for i, (a, source) in enumerate(families):
        for b, target in families[i + 1:]:
            before = len(proofs)
            result = find_conjugation(source, target, allow_theta=True)
            searched += len(proofs) - before
            statuses[f"{a}|{b}"] = result.status
            if result.status == "found":
                assert result.witness.transform_operator(source) == target
                replayed = Witness.from_json(json.loads(json.dumps(
                    result.witness.to_json())))
                assert replayed.transform_operator(source) == target
            elif result.status == "disjoint":
                assert len(result.certificate) == 2, (a, b)
                assert all(rechecks(c) for c in result.certificate), (a, b)
                # a shared certificate still speaks of this pair's systems
                flipped = conjugate_operator(target, theta13())
                for c, adjusted in zip(result.certificate, (target, flipped)):
                    if isinstance(c, UnitCertificate):
                        gens = built_system(source, adjusted).gens
                        assert all(g in gens for _, g in c.pairs), (a, b)
    assert len(statuses) == 741
    assert {pair for pair, s in statuses.items() if s == "found"} == FOUND_PAIRS
    assert sum(s == "disjoint" for s in statuses.values()) == 734
    assert len(calls) == GROEBNER_SEARCHES
    assert searched == UNIT_CERTIFICATES


@pytest.mark.parametrize("pair", [("R1", "R40"), ("R5", "R31")])
def test_a_unit_generator_settles_the_search_in_one_pass(pair, monkeypatch):
    """The relation comes first, so on the full built system a constant
    generator, or a monomial one in the invertible unknowns, turns it into
    [1] at the first reduction of the opening interreduction, before any
    S-pair."""
    invertible = {"u_aux", "k_scale", "alpha", "delta"}
    passes = []  # (inputs, checks) of each interreduction
    real_interreduce = groebner._interreduce

    def counting(entries, pk, _check):
        checks = []

        def check(partial):
            checks.append(partial)
            _check(partial)
        out = real_interreduce(entries, pk, check)
        passes.append((len(entries), len(checks)))
        return out

    settled = []
    monkeypatch.setattr(groebner, "_interreduce", counting)
    fam = certified_families()
    source, target = (fam[name] for name in pair)
    # without and with the flip, as the search builds them
    for adjusted in (target, conjugate_operator(target, theta13())):
        system = built_system(source, adjusted)
        passes.clear()
        gb = groebner.buchberger(system)
        unit_gen = any(g.is_constant() or (len(g.terms) == 1
                                           and g.variables() <= invertible)
                       for g in system.gens)
        if unit_gen and gb.basis[0].is_constant():
            (inputs, checks), closing = passes
            assert gb.stats.pairs_considered == 0
            # the relation, reduced first, gives the constant, unless a
            # generator already is one; a later pass would check more
            assert checks <= 1 < inputs
            assert closing == (1, 0)
            settled.append(system)
    assert find_conjugation(source, target).status == "disjoint"
    assert len(settled) == 2  # with and without the flip


@pytest.mark.parametrize("pair", [("R1", "R40"), ("R5", "R31")])
def test_a_unit_generator_answers_without_a_groebner_run(pair, monkeypatch):
    calls = []
    monkeypatch.setattr(transform, "buchberger",
                        lambda *args, **kwargs: calls.append(args))
    fam = certified_families()
    result = find_conjugation(*(fam[name] for name in pair))
    assert result.status == "disjoint" and calls == []
    assert len(result.certificate) == 2
    assert all(isinstance(c, UnitCertificate) and c.check()
               for c in result.certificate)


# seeded planted targets of families without parameters, each the family's
# image under (psi parameters alpha, beta, gamma, delta, epsilon; the flip;
# the scalar); R23's stabilizer is a curve, so its lex basis leaves a free
# variable under a pure-power relation
LIFTED_TARGETS = {
    "R23-a": ("R23", ("1/3", 1, 1, 3, 4), True, -1),
    "R23-b": ("R23", ("5/3", 1, -1, -6, -1), False, -7),
    "R20": ("R20", (-3, 2, 4, "-1/2", 3), False, "-2/3"),
}


@pytest.mark.parametrize("name", list(LIFTED_TARGETS))
def test_a_free_variable_lifts_through_a_binomial(name):
    family, params, flip, scalar = LIFTED_TARGETS[name]
    source = certified_families()[family]
    steps = (PsiStep(AutoParams(*(Fraction(v) for v in params))),)
    planted = Witness(steps + (ThetaStep(),) * flip, Fraction(scalar))
    target = planted.transform_operator(source)
    result = find_conjugation(source, target)
    assert result.status == "found"
    assert result.witness.transform_operator(source) == target


def test_parameters_named_like_search_unknowns():
    # parameters are split out of the search's generators, so a family whose
    # parameter shares a name with a psi unknown is searched like any other
    op = renamed(certified_families()["R31"], "kappa", "alpha")
    result = find_conjugation(op, op)
    assert result.status == "found"
    assert result.witness.transform_operator(op) == op


def test_found_witness_with_the_flip_is_replayed_once(monkeypatch):
    entries = {entry.id: entry for entry in build_catalog(strict=False)}
    calls = []
    replay = Witness.transform_operator

    def counting(self, op):
        calls.append(self)
        return replay(self, op)

    monkeypatch.setattr(Witness, "transform_operator", counting)
    result = find_conjugation(entries["R31"].operator, entries["R39"].operator,
                              allow_theta=True)
    assert result.status == "found"
    assert result.witness.steps[-1] == ThetaStep()
    assert calls == [result.witness]


def test_searched_systems_keep_the_polynomial_dedupe(monkeypatch):
    """The search dedupes the generators' unit-free primitive forms before
    building polynomials; on the pairs that reach ``buchberger`` (found and
    unit systems) and on planted targets, each system is the normalized one
    deduped as polynomials, in order and with every term order, and
    duplicates do occur."""
    fam = certified_families()
    pairs = [(fam[a], fam[b]) for a, b in (
        pair.split("|") for pair in sorted(FOUND_PAIRS) + [
            "R7|R30", "R10|R19", "R15|R29", "R16|R29"])]
    pairs.append(planted_target())
    for family, params, flip, scalar in LIFTED_TARGETS.values():
        steps = (PsiStep(AutoParams(*(Fraction(v) for v in params))),)
        planted = Witness(steps + (ThetaStep(),) * flip, Fraction(scalar))
        pairs.append((fam[family], planted.transform_operator(fam[family])))
    builds, systems = [], []
    real_builder = transform._search_generators
    real_buchberger = transform.buchberger

    def spy(*args):
        builds.append(list(real_builder(*args)))
        return iter(builds[-1])

    def buchberger_spy(system, limits=None):
        systems.append((len(builds) - 1, system))
        return real_buchberger(system, limits)

    monkeypatch.setattr(transform, "_search_generators", spy)
    monkeypatch.setattr(transform, "buchberger", buchberger_spy)
    searched = dropped = 0
    for source, target in pairs:
        builds.clear()
        systems.clear()
        find_conjugation(source, target)
        targets = [target, conjugate_operator(target, theta13())]
        for i, system in systems:
            expected = normalized(built_system(source, targets[i]).gens)
            assert as_terms(system.gens) == as_terms(expected)
            searched += 1
            dropped += len(builds[i]) - len(expected)
    assert searched >= len(pairs) and dropped > 0


# -- the normalized search system ----------------------------------------------


@st.composite
def planted_searches(draw):
    """A specialized certified family, its image under a drawn psi, maybe
    the flip, and a scale (1 when the search may not scale), and whether
    the search may scale."""
    source = SPECIALIZED[draw(st.sampled_from(sorted(certified_families())))]
    allow_scaling = draw(st.booleans())
    steps = (PsiStep(AutoParams(draw(NONZERO), draw(RATIOS), draw(RATIOS),
                                draw(NONZERO), draw(RATIOS))),)
    steps += (ThetaStep(),) * draw(st.booleans())
    scalar = draw(NONZERO) if allow_scaling else Fraction(1)
    return source, Witness(steps, scalar).transform_operator(source), allow_scaling


def searched_systems(source, target, allow_scaling=True):
    """Each raw generator list the search builds and the system it hands
    ``buchberger`` for it, as ``[(raw, system)]``."""
    builds, systems = [], []
    real_builder = transform._search_generators
    real_buchberger = transform.buchberger

    def spy(*args):
        builds.append(list(real_builder(*args)))
        return iter(builds[-1])

    def buchberger_spy(system, limits=None):
        systems.append((builds[-1], system))
        return real_buchberger(system, limits)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(transform, "_search_generators", spy)
        patch.setattr(transform, "buchberger", buchberger_spy)
        find_conjugation(source, target, allow_scaling=allow_scaling)
    table = transform._search_psi(allow_scaling)[0]
    return [([MultiPoly(table, t) for t in raw], system) for raw, system in systems]


def unit_multiple(raw, form):
    """Whether ``raw`` is ``form`` times a monomial in u, k, alpha and delta
    and a nonzero int."""
    lead, form_lead = max(raw.terms), max(form.terms)
    mono = tuple(a - b for a, b in zip(lead, form_lead))
    c = raw.terms[lead] / form.terms[form_lead]
    names = raw.table.names
    return (c.denominator == 1 and min(mono) >= 0
            and all(names[i] in INVERTIBLE for i, e in enumerate(mono) if e)
            and form * MultiPoly(raw.table, {mono: c}) == raw)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(planted_searches())
def test_the_normalized_system_has_the_raw_systems_basis(search):
    """Each normalized generator is its raw one over a unit monomial and an
    int, and the normalized system has the raw system's reduced basis."""
    systems = searched_systems(*search)
    assert systems  # a planted target has a witness, so no monomial rule
    for raw, system in systems:
        assert all(any(unit_multiple(g, form) for form in system.gens) for g in raw)
        assert all(any(unit_multiple(g, form) for g in raw) for form in system.gens)
        assert len(system.gens) <= len(raw)
        raw_system = PolySystem(system.table, tuple(dict.fromkeys(raw)), lex())
        assert groebner.buchberger(raw_system).basis == \
            groebner.buchberger(system).basis


@pytest.mark.parametrize("pair", ["R7|R30", "R10|R19", "R15|R29", "R16|R29"])
def test_the_raw_system_of_a_groebner_disjoint_pair_is_the_unit_ideal(pair):
    """The pairs that Groebner settles ``disjoint``: the certificate holds
    the normalized system, and the raw one has the basis [1] too."""
    fam = certified_families()
    source, target = (fam[name] for name in pair.split("|"))
    result = find_conjugation(source, target)
    assert result.status == "disjoint"
    flipped = conjugate_operator(target, theta13())
    bases = 0
    for c, adjusted in zip(result.certificate, (target, flipped)):
        if isinstance(c, UnitCertificate):
            continue
        raw = built_system(source, adjusted)
        assert as_terms(c.system.gens) == as_terms(normalized(raw.gens))
        assert [str(g) for g in c.basis] == ["1"]
        assert [str(g) for g in groebner.buchberger(raw).basis] == ["1"]
        bases += 1
    assert bases >= 1


def reference_search_points(polys, table, idx, assignment, budget):
    """``_search_points`` substituting each value into every polynomial,
    with no limits."""
    if budget[0] <= 0:
        return
    if idx < 0:
        if all(p.is_zero() for p in polys):
            yield dict(assignment)
        return
    name = table.names[idx]
    polys = [p for p in polys if not p.is_zero()]
    if any(not p.variables() for p in polys):
        return
    univariate = [p for p in polys if p.variables() == {name}]
    rest = [p for p in polys if p.variables() != {name}]
    if univariate:
        smallest = min(univariate, key=lambda p: p.total_degree())
        coeffs = {}
        for mono, c in smallest.terms.items():
            coeffs[mono[idx]] = coeffs.get(mono[idx], 0) + c
        candidates = [r for r in fraction_rational_roots(coeffs)
                      if all(p.substitute({name: r}).is_zero() for p in univariate)]
    else:
        x = tuple(int(i == idx) for i in range(len(table)))
        lifted = []
        for p in rest:
            if len(p.terms) == 2 and x in p.terms:
                (y, c), (_, d) = sorted(p.terms.items(), key=lambda t: t[0] == x)
                powers = [e for e in y[:idx] if e]
                if len(powers) == 1 and not any(y[idx:]):
                    lifted += [-c / d * s ** powers[0] for s in transform._TRIAL_VALUES]
        candidates = list(dict.fromkeys(transform._TRIAL_VALUES + tuple(lifted)))
    for value in candidates:
        budget[0] -= 1
        if budget[0] <= 0:
            return
        assignment[name] = value
        yield from reference_search_points(
            [p.substitute({name: value}) for p in rest], table, idx - 1,
            assignment, budget)
        del assignment[name]


def planted_search(family, params, theta, scalar):
    """One draw of ``planted_searches``, with scaling allowed."""
    steps = (PsiStep(AutoParams(*params)),) + (ThetaStep(),) * theta
    source = SPECIALIZED[family]
    return source, Witness(steps, scalar).transform_operator(source), True


@settings(derandomize=True, max_examples=40, deadline=None)
@given(planted_searches())
# a free variable lifted through a binomial, and a branch that meets a
# nonzero constant
@example(planted_search("R3", (-2, Fraction(-1, 2), Fraction(-1, 2), -4, -1),
                        False, Fraction(-4)))
@example(planted_search("R23", (Fraction(-1, 3), 1, -1, 1, 1), True, Fraction(-2)))
def test_search_points_match_substituting_into_every_polynomial(search):
    source, target, allow_scaling = search
    table = transform._search_psi(allow_scaling)[0]
    for _, system in searched_systems(source, target, allow_scaling):
        basis = list(groebner.buchberger(system).basis)
        start = len(table) - 1
        budget, reference_budget = [transform._BUDGET], [transform._BUDGET]
        got = list(transform._search_points(
            [transform._primitive(p.terms) for p in basis], table, start, {},
            budget, lambda: None))
        expected = list(reference_search_points(basis, table, start, {},
                                                reference_budget))
        assert got == expected and got
        assert budget == reference_budget
