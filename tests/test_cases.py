"""Case driver: system regeneration, membership certificates, solutions."""

import json
import pathlib
from dataclasses import replace
from fractions import Fraction

import pytest

from rbu3 import catalog
from rbu3.catalog import case_preset, case_preset_names, run_case
from rbu3.groebner import (GroebnerBasis, Limits, PolySystem, buchberger,
                           normal_form)
from rbu3.matrices import basis_indices
from rbu3.operators import bvar_name, generate_system, rb_residual
from rbu3.poly import MultiPoly, VarTable

from reference import ShapeAnsatz, preset_shapes, symbolic_operator

FAST = Limits(max_pairs=100000, deadline=240.0)

# The Groebner counters of each preset's run: (pairs considered, pairs
# reduced, zero reductions, restarts, basis size).  They change whenever the
# pair order or the divisor choice does; restarts is always 0, as the engine
# runs one pair loop, and stays as a field of the stats JSON.
GB_COUNTERS = {
    "sec4.1": (7626, 1130, 1062, 0, 124),
    "sec4.2": (990, 243, 237, 0, 45),
    "sec4.3": (741, 196, 192, 0, 39),
    "sec5": (5356, 664, 613, 0, 104),
    "sec5-reduced": (276, 97, 83, 0, 24),
    "sec5-sub2.1": (55, 20, 15, 0, 6),
    "sec6": (9870, 1427, 1344, 0, 141),
    "sec7": (406, 2, 2, 0, 29),
    "sec7-reduced": (253, 2, 2, 0, 23),
}

REF_CASES = pathlib.Path(__file__).parent.parent / "perfbench" / "ref" / "cases.json"

# The source table prints sec7's linear relation with the opposite sign.
# That variant cannot vanish on the case's solution set: the flip
# antiautomorphism stabilizes the case and swaps b_11_12 with b_33_23, and
# the displayed solution itself has b_11_12 = 1, b_33_23 = 0.  The preset
# carries the symmetric form, the one that certifies.
SEC7_PRINTED_LINEAR = "b_11_12 - b_33_23 + 1"


def gb_counters(stats):
    return (stats.pairs_considered, stats.pairs_reduced, stats.zero_reductions,
            stats.restarts, stats.basis_size)


def assert_gb_counters(report):
    assert gb_counters(report.stats) == GB_COUNTERS[report.case]


def test_every_preset_basis_matches_the_recorded_reference():
    """Each preset's reduced basis, term order included, equals the one
    recorded in the benchmark's reference file (read here, never written)."""
    ref = json.loads(REF_CASES.read_text())
    assert sorted(ref) == sorted(case_preset_names()) == sorted(GB_COUNTERS)
    for name in case_preset_names():
        spec = case_preset(name)
        system, shape = generate_system(spec.ansatz())
        if spec.localize:
            system = system.localize(shape.expand(spec.localize, spec.aliases))
        gb = buchberger(system, Limits(max_pairs=200000, deadline=600.0))
        assert gb.to_json()["basis"] == ref[name]["basis"], name
        assert gb_counters(gb.stats) == GB_COUNTERS[name], name


def test_every_preset_report_matches_the_recorded_reference():
    """Each preset's ``run_case`` report without its counters (memberships,
    certificates and solution checks) equals the one the benchmark
    recorded (read here, never written)."""
    ref = json.loads(REF_CASES.read_text())
    for name in case_preset_names():
        report = run_case(case_preset(name)).to_json()
        report.pop("stats")
        assert report == ref[name]["report"], name


def test_preset_names():
    names = case_preset_names()
    for required in ("sec4.1", "sec5", "sec5-reduced", "sec5-sub2.1",
                     "sec6", "sec7"):
        assert required in names
    with pytest.raises(KeyError):
        case_preset("sec9.9")


def test_sec41_full_case():
    report = run_case(case_preset("sec4.1"), FAST)
    assert report.variables == 15
    assert_gb_counters(report)
    assert report.gb_reduced and not report.resource_limited
    assert report.all_pass(), report.to_text()
    # the three linear kernel facts and the quoted products all certify
    kinds = {m.text: m.certified_by for m in report.memberships}
    assert kinds["(c) * (a)"] in ("ideal", "power-2", "power-3")
    assert all(m.member for m in report.memberships)


def test_sec42_case():
    report = run_case(case_preset("sec4.2"), FAST)
    assert report.variables == 12
    assert_gb_counters(report)
    assert len(report.memberships) == 18
    assert report.all_pass(), report.to_text()


def test_sec43_case():
    report = run_case(case_preset("sec4.3"), FAST)
    assert report.variables == 11
    assert_gb_counters(report)
    assert len(report.memberships) == 20
    assert report.all_pass(), report.to_text()


def test_sec43_branch_conjugates_onto_the_corrected_r9():
    """The middle-image branch at (s, t) = (2, 3) lands exactly on the
    shipped R9 after the quoted conjugation alpha = delta = s, beta = -t:
    this is the derivation that disambiguates R9's display."""
    from fractions import Fraction
    from rbu3.catalog import get_entry
    from rbu3.operators import Operator
    from rbu3.transform import AutoParams, build_psi, conjugate_operator
    family = Operator.from_images({"e23": "3*e12 + e22", "e11": "-2*e13",
                                   "e33": "2*e13"})
    assert rb_residual(family).is_zero()
    psi = build_psi(AutoParams(alpha=Fraction(2), delta=Fraction(2),
                               beta=Fraction(-3)))
    assert conjugate_operator(family, psi) == get_entry("R9").operator


def test_sec5_reduced_case():
    report = run_case(case_preset("sec5-reduced"), FAST)
    assert report.variables == 9
    assert_gb_counters(report)
    assert report.all_pass(), report.to_text()
    assert {tuple(m.factors) for m in report.memberships} == {
        ("f", "b"), ("f", "d"), ("f", "g"), ("j", "b"), ("j", "d"), ("j", "g")}


def test_sec5_subcase_21_localization():
    report = run_case(case_preset("sec5-sub2.1"), FAST)
    assert_gb_counters(report)
    assert report.all_pass(), report.to_text()
    # with i invertible the five letters vanish at ideal level
    assert all(m.certified_by == "ideal" for m in report.memberships)
    assert {m.text for m in report.memberships} == {"a", "b", "d", "g", "h"}


def test_sec6_reduced_case():
    report = run_case(case_preset("sec6"), FAST)
    assert report.variables == 18
    assert_gb_counters(report)
    assert len(report.memberships) == 42
    assert report.all_pass(), report.to_text()


def test_sec7_full_case():
    report = run_case(case_preset("sec7"), FAST)
    assert report.variables == 30
    assert_gb_counters(report)
    assert report.all_pass(), report.to_text()
    quad = [m for m in report.memberships if m.factors == ("b_33_23^2 - b_33_23",)]
    assert quad and quad[0].member


def test_sec7_printed_linear_variant_provably_fails():
    """The linear relation as printed in the source table has the wrong
    orientation: b_11_12 - b_33_23 + 1 does not vanish on the case's
    solution set (the flip swaps b_11_12 and b_33_23, and the displayed
    solution has b_11_12 = 1, b_33_23 = 0).  The symmetric form does."""
    spec = case_preset("sec7")
    system, shape = generate_system(spec.ansatz())
    gb = buchberger(system, FAST)
    printed = shape.expand(SEC7_PRINTED_LINEAR)
    corrected = shape.expand("b_11_12 + b_33_23 - 1")
    # corrected form: some power falls into the ideal
    assert normal_form(corrected * corrected, gb.basis, system.order).is_zero()
    # printed form: does not vanish on the variety (localization stays proper)
    localized = system.localize(printed, "t_loc")
    loc_gb = buchberger(localized, FAST)
    assert not (len(loc_gb.basis) == 1 and loc_gb.basis[0].is_constant())


def test_a_relation_false_on_the_solution_set_fails_the_case():
    """a = b_12_13 is R(e12)'s e13 entry, which sec4.1's solution
    im-in-L(e13) leaves free: the relation a does not vanish on the
    solution set, so the localization over the full basis refutes it."""
    spec = replace(case_preset("sec4.1"), relations=(("a",),))
    (solution,) = [s for s in spec.solutions if s.name == "im-in-L(e13)"]
    assert str(solution.operator().image((1, 2)).entry(1, 3)) == "a"
    report = run_case(spec, FAST)
    (member,) = report.memberships
    assert (member.member, member.vacuous, member.certified_by) == \
        (False, False, "localization")
    assert report.gb_reduced and all(s.passed() for s in report.solutions)
    assert not report.all_pass()
    text = report.to_text()
    assert "  member a: FAIL\n" in text and text.endswith("  all: FAIL")


def test_a_relation_the_constraints_force_is_vacuous():
    """sec4.1's constraints set b_11_11 to 0, so the relation b_11_11 is
    zero before any basis is consulted: imposed by the ansatz."""
    spec = replace(case_preset("sec4.1"), relations=(("b_11_11",),))
    report = run_case(spec, FAST)
    (member,) = report.memberships
    assert (member.member, member.vacuous, member.certified_by) == \
        (True, True, "ansatz")
    assert report.all_pass()
    assert "  member b_11_11: PASS (imposed by ansatz)\n" in report.to_text()
    assert report.to_json()["memberships"] == [{
        "claim": "b_11_11", "member": True, "vacuous": True,
        "certified_by": "ansatz"}]


@pytest.mark.parametrize("reduced", ["sec5-reduced", "sec7-reduced"])
def test_a_reduced_preset_imposes_relations_its_full_preset_certifies(reduced):
    """Each constraint a reduced preset adds is a quoted relation of its full
    preset, and the full preset's run certifies it as an ideal member; one
    constant changed would make it no relation at all."""
    spec = case_preset(reduced.removesuffix("-reduced"))
    claims = set(case_preset(reduced).constraints) - set(spec.constraints)
    assert claims and all((claim,) in spec.relations for claim in claims)
    member = {m.factors: m.member for m in run_case(spec, FAST).memberships}
    assert all(member[(claim,)] is True for claim in claims)
    if spec.name == "sec7":
        # without a Groebner basis: the residual summed over the diagonal
        # basis pairs is R(1)^2 - 2 R(R(1)), and with R(1) = e12 + e23 its six
        # nonzero components are the claims, each up to sign
        ansatz = spec.ansatz()
        _, shape = generate_system(ansatz)
        op = symbolic_operator(shape, ansatz.weight)
        total = {}
        for ((u, v), pos), value in rb_residual(op).entries.items():
            if u[0] == u[1] and v[0] == v[1]:
                total[pos] = total[pos] + value if pos in total else value
        assert len(total) == len(claims) == 6 and all(total.values())
        assert all(-shape.expand(claim) in total.values() for claim in claims)


@pytest.mark.parametrize("name", case_preset_names())
def test_preset_shape_is_the_reference_derivation(name):
    """Each shipped preset's constraints and relations equal those derived
    from its section's ansatz description in ``tests/reference.py``."""
    spec = case_preset(name)
    constraints, relations = preset_shapes()[name]
    assert spec.constraints == constraints
    assert spec.relations == relations


def test_solutions_are_certified_families():
    for name in ("sec4.1", "sec5", "sec6", "sec7"):
        for solution in case_preset(name).solutions:
            assert rb_residual(solution.operator()).is_zero(), \
                (name, solution.name)


def test_case_report_json_shape():
    report = run_case(case_preset("sec5-reduced"), FAST)
    data = report.to_json()
    assert data["schema"] == 1 and data["all_pass"] is True
    assert data["case"] == "sec5-reduced"
    assert all(m["member"] for m in data["memberships"])
    assert all(s["satisfies_ansatz"] and s["annihilates_system"]
               for s in data["solutions"])


def test_resource_limited_case_reports_partial_state():
    report = run_case(case_preset("sec6"), Limits(max_pairs=50))
    assert report.resource_limited and not report.gb_reduced
    # zero normal forms against the partial basis are still sound; nothing
    # may be reported as a definite non-member
    assert all(m.member in (True, None) for m in report.memberships)


def test_deadline_bounds_the_whole_case(monkeypatch):
    # with no time left after the first Groebner basis computation, every
    # membership's localization try is skipped, not given a fresh deadline
    calls = []
    real_buchberger = catalog.buchberger

    def spy(system, limits=None):
        calls.append(limits)
        return real_buchberger(system, limits)

    monkeypatch.setattr(catalog, "buchberger", spy)
    report = run_case(case_preset("sec4.1"), Limits(deadline=0.0))
    assert len(calls) == 1
    assert report.resource_limited and not report.gb_reduced
    kinds = {m.certified_by for m in report.memberships}
    assert "undecided" in kinds
    assert all(kind in ("ideal", "ansatz", "undecided") or kind.startswith("power-")
               for kind in kinds)


def test_a_skipped_localization_leaves_the_claim_undecided():
    """x is not in <x^5>, but vanishes where it does: the localization
    certifies it, and when it is skipped (no time left) or stopped by a
    limit the claim is undecided, not refuted."""
    table = VarTable(["x", "y"])
    gb = buchberger(PolySystem(table, (table.parse("x^5"),)))
    claim = table.parse("x")

    def certify(limits):
        return catalog._certify_membership(("x",), "x", claim, gb, limits.start())
    assert gb.reduced
    found = certify(Limits())
    assert (found.member, found.certified_by) == (True, "localization")
    skipped = certify(Limits(deadline=0.0))
    stopped = certify(Limits(max_pairs=0))  # the localization raises
    for result in (skipped, stopped):
        assert (result.member, result.certified_by) == (None, "undecided")
        assert not result.passed()


def test_deadline_covers_the_partial_autoreduce(monkeypatch):
    # once the deadline has passed, the autoreduce of the partial basis stops
    # before its first polynomial and the case keeps the partial it carries;
    # no membership is then reduced, each left undecided unless the ansatz
    # settles it
    passes, reduced = [], []
    real_autoreduce = catalog.autoreduce
    real_contains = GroebnerBasis.contains

    def spy(polys, order=None, limits=None):
        passes.append("started")
        result = real_autoreduce(polys, order, limits)
        passes.append("finished")
        return result

    def contains_spy(gb, p):
        reduced.append(p)
        return real_contains(gb, p)

    monkeypatch.setattr(catalog, "autoreduce", spy)
    monkeypatch.setattr(GroebnerBasis, "contains", contains_spy)
    report = run_case(case_preset("sec6"), Limits(deadline=0.0))
    assert passes == ["started"] and reduced == []
    assert report.resource_limited and not report.gb_reduced
    kinds = [m.certified_by for m in report.memberships]
    assert "undecided" in kinds and set(kinds) <= {"undecided", "ansatz"}
    assert all(m.member is None for m in report.memberships
               if m.certified_by == "undecided")


def test_extra_branch_of_the_pm_e13_family_is_empty():
    """The case R(1) = 0, R(e33) = R(e12) = 0, R(e13) = e12,
    R(e23) = e11 + e22 + s e12 admits no solution with R(e22) != 0: every
    coordinate of R(e22) lies in the case ideal.  (This refutes the branch
    that the shipped R13 display was copied from.)"""
    ansatz = ShapeAnsatz(3).fix_unit_image("0")
    ansatz.fix_image("e33", "0")
    ansatz.fix_image("e12", "0")
    ansatz.fix_image("e13", "e12")
    for dst in ("11", "22"):
        ansatz.constraints.append(f"b_23_{dst} - 1")
    for dst in ("13", "23", "33"):
        ansatz.constraints.append(f"b_23_{dst}")
    system, shape = generate_system(ansatz)
    gb = buchberger(system, FAST)
    for dst in ("11", "12", "13", "22", "23", "33"):
        coord = shape.expand(f"b_22_{dst}")
        # vanishing on the solution set: a small power falls into the ideal
        assert normal_form(coord * coord, gb.basis, system.order).is_zero(), dst


# -- solution checks: the substitution route as the oracle -------------------


def substitution_route(spec, system, solution):
    """(satisfies_ansatz, annihilates_system) by substituting the
    solution's b-values into each constraint and each generator."""
    op = solution.operator()
    table = VarTable(solution.params)
    values = {bvar_name(src, dst): op.image(src).entries.get(dst, Fraction(0))
              for src in basis_indices(3) for dst in basis_indices(3)}

    def vanishes(poly):
        bound = {name: values[name] for name in poly.variables()}
        return poly.substitute(bound, table).is_zero()

    bnames = VarTable(spec.ansatz().all_bvars())
    ok_ansatz = all(vanishes(bnames.parse(c)) for c in spec.constraints)
    return ok_ansatz, ok_ansatz and all(vanishes(g) for g in system.gens)


def moved(solution, term, src, dst=None):
    """The solution with ``term`` added to R(src) and taken from R(dst)."""
    images = dict(solution.images)
    images[src] = f"{images[src]} + {term}" if src in images else term
    if dst is not None:
        images[dst] = f"{images[dst]} - {term}" if dst in images else f"-{term}"
    return replace(solution, name=f"{solution.name}+{term}", images=images)


# Per preset, a solution and a parameter-dependent term added to R(src) and
# taken from R(dst) (or from nowhere): R(1) and every other constraint still
# hold, the identity fails.
IDENTITY_BREAKING = {
    "sec4.1": ("im-in-L(e12,e13)", "c*c*e23", "e11", "e22"),
    "sec4.2": ("opposite-corner-branch", "e*e*e11", "e12", None),
    "sec4.3": ("matched-pair-branch", "a*a*e13", "e11", "e33"),
    "sec5": ("j-zero-branch", "a*a*e11", "e11", "e22"),
    "sec5-reduced": ("j-zero-branch", "a*a*e13", "e11", "e22"),
    "sec5-sub2.1": ("i-invertible-branch", "c*c*e12", "e11", "e22"),
    "sec6": ("im-in-L(e12,e13)", "b*b*e23", "e11", "e22"),
    "sec7": ("lower-branch", "b*b*e11", "e11", "e22"),
    "sec7-reduced": ("lower-branch", "b*b*e12", "e11", "e22"),
}


@pytest.mark.parametrize("name", case_preset_names())
def test_solution_checks_agree_with_the_substitution_route(name):
    """``run_case`` checks each solution by its residual; substituting into
    every constraint and generator gives the same verdicts, on the listed
    solutions and on perturbed ones that both must refuse."""
    spec = case_preset(name)
    system, _ = generate_system(spec.ansatz())
    by_name = {s.name: s for s in spec.solutions}
    sol_name, term, src, dst = IDENTITY_BREAKING[name]
    breaks_identity = moved(by_name[sol_name], term, src, dst)
    breaks_ansatz = moved(by_name[sol_name], term, "e11")  # R(1) moves
    assert not rb_residual(breaks_identity.operator()).is_zero()
    solutions = spec.solutions + (breaks_identity, breaks_ansatz)
    report = run_case(replace(spec, solutions=solutions), FAST)
    verdicts = [(r.satisfies_ansatz, r.annihilates_system)
                for r in report.solutions]
    assert verdicts == [substitution_route(spec, system, s) for s in solutions]
    assert verdicts[:-2] == [(True, True)] * len(spec.solutions)
    assert verdicts[-2:] == [(True, False), (False, False)]


def test_solution_checks_on_a_spec_with_a_fractional_constraint():
    """Beside R(e12) in the span of e11, e12, e13 with 2 b_12_11 = 1 and
    every other image zero: one solution breaks only that constraint, and
    one meets every constraint but not the identity."""
    ansatz = ShapeAnsatz(3, constraints=["2*b_12_11 - 1"])
    ansatz.restrict_span("e12", ["e11", "e12", "e13"])
    for name in ("e11", "e13", "e22", "e23", "e33"):
        ansatz.fix_image(name, "0")
    solutions = (
        catalog.CaseSolution("half-R5", ("s",), {"e12": "1/2*e11 + s*e13"}, ()),
        catalog.CaseSolution("R5", (), {"e12": "e11"}, ()),
        catalog.CaseSolution("half-R5-plus-e12", ("s",),
                             {"e12": "1/2*e11 + s*e12"}, ()),
    )
    spec = catalog.CaseSpec("tie", "R(e12) in L(e11, e12, e13)",
                            tuple(ansatz.constraints), {}, (), solutions)
    assert rb_residual(solutions[1].operator()).is_zero()
    assert not rb_residual(solutions[2].operator()).is_zero()
    report = run_case(spec, FAST)
    verdicts = [(r.satisfies_ansatz, r.annihilates_system)
                for r in report.solutions]
    assert verdicts == [(True, True), (False, False), (True, False)]
    system, _ = generate_system(spec.ansatz())
    assert verdicts == [substitution_route(spec, system, s) for s in solutions]


def proportional(a, b):
    """Whether the nonzero polynomials ``a`` and ``b`` are scalar multiples."""
    if a.terms.keys() != b.terms.keys():
        return False
    ratios = {a.terms[m] / b.terms[m] for m in a.terms}
    return len(ratios) == 1


@pytest.mark.parametrize("name", case_preset_names())
def test_generators_are_the_residual_components(name):
    """Each generator is a multiple of a nonzero residual component of the
    constrained ansatz operator, and each such component a multiple of a
    generator: the equivalence behind checking solutions by the residual."""
    ansatz = case_preset(name).ansatz()
    system, shape = generate_system(ansatz)
    components = []
    op = symbolic_operator(shape, ansatz.weight)
    for value in rb_residual(op).entries.values():
        if not isinstance(value, MultiPoly):
            value = MultiPoly.const(system.table, value)
        if not value.is_zero():
            components.append(value)
    assert components and system.gens
    for gen in system.gens:
        assert any(proportional(gen, c) for c in components), gen
    for c in components:
        assert any(proportional(c, gen) for gen in system.gens), c
