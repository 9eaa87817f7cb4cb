"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The engine refutes the classification table as displayed in two places, and
criteria 1, 2b and 3 check those refutations as exact facts:

* R13 as displayed violates the defining identity and has a 3-dimensional
  image.  Criterion 1 asserts that R13 is the one family that fails
  certification and rechecks its refutation without ``rb_residual``
  (R(1) = 0 forces R^2 = 0, yet R13^2 != 0).  Criterion 3 applies the image
  dimension bound to the certified families and asserts that R13 is the only
  family left out.  test_catalog.py pins the first residual cell.
* The source's list of families with R^2 != 0 omits R25 and R26.  Criterion
  2b asserts the corrected list and the two witnesses
  R25^2(e23) = e12 and R26^2(e23) = (kappa + 1) e12.

Run with ``pytest tests/test_acceptance.py -v``.
"""

import random
import time
from fractions import Fraction

import pytest

from rbu3.catalog import (EXPECTED_R2_NONZERO, build_catalog, case_preset,
                          run_case, verify_all)
from rbu3.groebner import (Limits, PolySystem, buchberger, ideal_member,
                           normal_form)
from rbu3.matrices import UTMatrix, basis_indices, parse_matrix
from rbu3.operators import Operator, check_lemma3, rb_residual
from rbu3.poly import MultiPoly, VarTable, grevlex, lex, parse_poly
from rbu3.transform import (AutoParams, PsiStep, Witness,
                            canonicalize_idempotent, canonicalize_nilpotent,
                            conjugate_operator, find_conjugation, theta13)

from reference import leading

ENTRIES = build_catalog(strict=False)
BY_ID = {e.id: e for e in ENTRIES}
CERTIFIED = [e for e in ENTRIES if e.residual_zero]


def _report(num, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"[acceptance] criterion {num}: {status}{suffix}")


def test_criterion_1_catalog_certification():
    """Certification of all 40 families runs in under a minute and gives
    exactly one failure, R13, which is shipped as displayed.  R13's
    refutation is rechecked without the residual: the identity at y = 1
    forces R^2 = 0 whenever R(1) = 0, and R13 has R(1) = 0 but R13^2 != 0."""
    start = time.monotonic()
    fresh = build_catalog(strict=False)
    elapsed = time.monotonic() - start
    failing = [e.id for e in fresh if not e.residual_zero]
    r13 = next(e for e in fresh if e.id == "R13").operator
    refuted = r13.unit_image().is_zero() and not r13.compose(r13).is_zero()
    _report(1, failing == ["R13"] and refuted and elapsed < 60,
            f"{40 - len(failing)}/40 residuals zero in {elapsed:.1f}s; "
            f"failing: {failing} (R13 first cell {BY_ID['R13'].first_failure}); "
            f"R13 refuted by R(1) = 0, R^2 != 0: {refuted}")
    assert elapsed < 60
    assert failing == ["R13"], f"families with nonzero residual: {failing}"
    assert refuted, "R13 as displayed should have R(1) = 0 and R^2 != 0"


def test_criterion_2a_rb_index_is_three():
    report = verify_all()
    _report("2a", report.rb_index == 3, f"computed rb-index {report.rb_index}")
    assert report.rb_index == 3


def test_criterion_2b_r2_nonzero_set_matches_quoted_list():
    """R^2 != 0 holds exactly on EXPECTED_R2_NONZERO, in catalog order.  It
    corrects the source's quoted list {R13,R29,R31,R32,R38,R39,R40}, which
    omits R25 and R26; their membership rests on squares checkable by hand:
    R25^2(e23) = e12 and R26^2(e23) = (kappa+1) e12, nonzero for kappa != -1."""
    report = verify_all()
    r25 = BY_ID["R25"].operator
    r26 = BY_ID["R26"].operator
    assert r25.compose(r25).image((2, 3)) == UTMatrix.basis(3, 1, 2)
    assert r26.compose(r26).image((2, 3)) == parse_matrix(
        "kappa*e12 + e12", table=VarTable(["kappa"]))
    _report("2b", report.r2_nonzero == EXPECTED_R2_NONZERO,
            f"computed {list(report.r2_nonzero)}; "
            f"expected {list(EXPECTED_R2_NONZERO)}")
    assert {"R25", "R26"} <= set(EXPECTED_R2_NONZERO)
    assert report.r2_nonzero == EXPECTED_R2_NONZERO, (
        f"R^2 != 0 holds exactly on {list(report.r2_nonzero)}")


def test_criterion_3_image_dimension_bound():
    """Generic image dimension <= 2 for every certified family except R40
    (exactly 3).  The bound is about Rota-Baxter operators, so it covers the
    certified families, as criteria 4 and 5 do; the uncertified set must be
    exactly R13, so no family leaves the bound unnoticed."""
    uncertified = [e.id for e in ENTRIES if not e.residual_zero]
    dims = {e.id: e.operator.image_dimension() for e in CERTIFIED}
    offenders = {k: v for k, v in dims.items() if k != "R40" and v > 2}
    ok = uncertified == ["R13"] and dims.get("R40") == 3 and not offenders
    _report(3, ok, f"R40 dim {dims.get('R40')}; over bound: "
                   f"{offenders or 'none'}; uncertified: {uncertified}")
    assert uncertified == ["R13"]
    assert dims["R40"] == 3
    assert not offenders, f"certified families over the bound: {offenders}"


def test_criterion_4_lemma_suite_on_certified_entries():
    """For each certified family: 1 not in Im(R); R(1) = 0 implies R^2 = 0;
    R(1)^n = n! R^n(1) for n = 1,2,3; R(1)^3 = 0."""
    failures = []
    for entry in CERTIFIED:
        op = entry.operator
        lemma = check_lemma3(op)
        r1 = op.unit_image()
        cube_zero = (r1 * r1 * r1).is_zero()
        if not (lemma.unit_not_in_image
                and lemma.kernel_contains_image in (True, None)
                and lemma.unit_power_identity and cube_zero):
            failures.append(entry.id)
    _report(4, not failures,
            f"{len(CERTIFIED)} certified entries checked"
            + (f"; failures {failures}" if failures else ""))
    assert not failures


def test_criterion_5_closure_under_scaling_and_conjugation():
    """100 randomized trials per entry: scaling (nonzero k), conjugation by a
    random rational psi (alpha, delta != 0) and by the flip all preserve the
    zero residual.  Runtime < 5 minutes."""
    start = time.monotonic()
    report = verify_all(samples=100, seed=20240819)
    elapsed = time.monotonic() - start
    bad = [e.id for e in report.entries
           if e.residual_zero and e.closure_failures]
    skipped = [e.id for e in report.entries if not e.residual_zero]
    _report(5, not bad and elapsed < 300,
            f"100 trials x {len(report.entries) - len(skipped)} entries in "
            f"{elapsed:.0f}s; skipped (uncertified): {skipped}")
    assert not bad
    assert elapsed < 300


def _random_poly(rng, table, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in table.names)
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MultiPoly(table, terms)


def _divides_exactly(dividend, divisor, order):
    remainder = dividend
    lm, lc = leading(divisor, order)
    while not remainder.is_zero():
        mono, coeff = leading(remainder, order)
        if any(m < l for m, l in zip(mono, lm)):
            return False
        shift = tuple(m - l for m, l in zip(mono, lm))
        remainder = remainder - MultiPoly(dividend.table,
                                          {shift: coeff / lc}) * divisor
    return True


def test_criterion_6_groebner_oracle_equivalence():
    """Frozen lex oracle, idempotent normal forms, S-pair reduction, and 200
    randomized principal-ideal membership queries against long division."""
    table = VarTable(["x", "y"])
    system = PolySystem(table, (parse_poly("x^2 - 1", table),
                                parse_poly("x*y - 1", table)), lex())
    gb = buchberger(system)
    oracle_ok = [g.to_str(lex()) for g in gb.basis] == ["x - y", "y^2 - 1"]
    spair_ok = gb.verify()

    rng = random.Random(20240820)
    nf_ok = True
    for _ in range(50):
        basis = [p for p in (_random_poly(rng, table) for _ in range(2)) if p]
        f = _random_poly(rng, table, max_terms=5)
        once = normal_form(f, basis, grevlex())
        if normal_form(once, basis, grevlex()) != once:
            nf_ok = False
            break

    member_ok = True
    trials = positives = 0
    while trials < 200:
        f = _random_poly(rng, table)
        if f.is_zero():
            continue
        trials += 1
        principal = buchberger(PolySystem(table, (f,), grevlex()))
        candidate = _random_poly(rng, table, max_terms=3) * f
        if rng.random() < 0.5 and not f.is_constant():
            candidate = candidate + 1
        via_gb = ideal_member(candidate, principal) if candidate else True
        via_division = (_divides_exactly(candidate, f, grevlex())
                        if candidate else True)
        if via_gb != via_division:
            member_ok = False
            break
        positives += via_gb
    ok = oracle_ok and spair_ok and nf_ok and member_ok and 0 < positives < trials
    _report(6, ok, f"lex oracle {oracle_ok}, S-pairs {spair_ok}, "
                   f"NF idempotent {nf_ok}, membership 200/200 vs division")
    assert ok


CASE_BUDGET = Limits(max_pairs=500000, deadline=600.0)


def _case_certified(name):
    report = run_case(case_preset(name), CASE_BUDGET)
    return report, report.all_pass()


@pytest.mark.parametrize("name,fallback", [
    ("sec4.1", None),
    ("sec5", "sec5-reduced"),
    ("sec6", None),
    ("sec7", "sec7-reduced"),
])
def test_criterion_7_case_replay(name, fallback):
    """Every quoted relation certifies (vanishes on the case's solution set)
    and every claimed solution family annihilates the unsimplified system,
    within a 10-minute budget per case; on overrun the post-reduction
    subsystem must still complete."""
    start = time.monotonic()
    report, ok = _case_certified(name)
    used_fallback = False
    if not ok and report.resource_limited and fallback:
        # the fallback counts only if each constraint it adds is a relation
        # the full case's run certified
        certified = {m.factors for m in report.memberships if m.member}
        added = (set(case_preset(fallback).constraints)
                 - set(case_preset(name).constraints))
        report, ok = _case_certified(fallback)
        used_fallback = True
        ok = ok and all((claim,) in certified for claim in added)
    elapsed = time.monotonic() - start
    _report(7, ok and elapsed < 600,
            f"{name}{' via ' + fallback if used_fallback else ''}: "
            f"{len(report.memberships)} relations, "
            f"{len(report.solutions)} solution families in {elapsed:.0f}s")
    assert elapsed < 600
    assert ok, report.to_text()


def test_criterion_8_canonical_forms():
    """500 random nilpotents land on one of the four orbit forms and 500
    random rank-1/rank-2 idempotents reach their forms, every witness
    replaying exactly."""
    rng = random.Random(20240821)
    nil_labels = set()
    for _ in range(500):
        entries = {}
        for idx in ((1, 2), (1, 3), (2, 3)):
            if rng.random() < 0.7:
                value = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                if value:
                    entries[idx] = value
        m = UTMatrix(3, entries)
        cf = canonicalize_nilpotent(m)
        assert cf.witness.act_element(m) == cf.form
        nil_labels.add(cf.label)
    q = lambda: Fraction(rng.randint(-9, 9), rng.randint(1, 4))
    idem_labels = set()
    for trial in range(500):
        kind = trial % 6
        if kind == 0:
            m = UTMatrix(3, {(1, 1): Fraction(1), (1, 2): q(), (1, 3): q()})
        elif kind == 1:
            p_val, r_val = q(), q()
            m = UTMatrix(3, {(2, 2): Fraction(1), (1, 2): p_val,
                             (1, 3): p_val * r_val, (2, 3): r_val})
        elif kind == 2:
            m = UTMatrix(3, {(3, 3): Fraction(1), (1, 3): q(), (2, 3): q()})
        elif kind == 3:
            m = UTMatrix(3, {(1, 1): Fraction(1), (2, 2): Fraction(1),
                             (1, 3): q(), (2, 3): q()})
        elif kind == 4:
            p_val, r_val = q(), q()
            m = UTMatrix(3, {(1, 1): Fraction(1), (3, 3): Fraction(1),
                             (1, 2): p_val, (1, 3): -p_val * r_val,
                             (2, 3): r_val})
        else:
            m = UTMatrix(3, {(2, 2): Fraction(1), (3, 3): Fraction(1),
                             (1, 2): q(), (1, 3): q()})
        assert m.is_idempotent()
        cf = canonicalize_idempotent(m)
        assert cf.witness.act_element(m) == cf.form
        assert cf.form.rank() == m.rank()
        idem_labels.add(cf.label)
    ok = (nil_labels == {"zero", "e12", "e13", "e12+e23"}
          and idem_labels == {"e11", "e22", "e11+e22", "e11+e33"})
    _report(8, ok, f"nilpotent forms {sorted(nil_labels)}, "
                   f"idempotent forms {sorted(idem_labels)}")
    assert ok


def _op(images, params=()):
    return Operator.from_images(images, n=3, params=params)


def _witness_cases():
    """In-text conjugations: (source, target id, quoted psi parameters)."""
    cases = []
    # images-in-one-point family at (s,t) = (1,1) sent to the e13 -> e11 form
    src = _op({"e12": "e11 + e12 - e13", "e13": "e11 + e12 - e13",
               "e23": "e11 + e12 - e13", "e33": "-e11 - e12 + e13",
               "e22": "e11 + e12 - e13"})
    cases.append(("R6", src, AutoParams(beta=1, gamma=-1, epsilon=-1)))
    # e22 + t e12 image at t = 2 sent to the single e22 image
    cases.append(("R8",
                  _op({"e23": "e22 + 2*e12"}),
                  AutoParams(beta=-2)))
    # two-column family at (s,t) = (1,2) sent to e12 -> e22, e13 -> e11+e22
    cases.append(("R19",
                  _op({"e12": "-2*e11 + e22 + 2*e23",
                       "e13": "e11 + e22 + 2*e23"}),
                  AutoParams(delta=Fraction(1, 3), epsilon=Fraction(2, 3))))
    # rank-one (s,t) = (1,1) family sent to e13 -> e11 + e22
    cases.append(("R10",
                  _op({"e12": "-e11 - e22 + e13 - e23",
                       "e13": "e11 + e22 - e13 + e23",
                       "e23": "e11 + e22 - e13 + e23",
                       "e22": "-e11 - e22 + e13 - e23",
                       "e11": "e11 + e22 - e13 + e23"}),
                  AutoParams(beta=1, epsilon=1)))
    # e11 + e33 + s e23 image at s = 3 sent to the plain e11 + e33 image
    cases.append(("R17",
                  _op({"e12": "e11 + e33 + 3*e23"}),
                  AutoParams(epsilon=-3)))
    return cases


def test_criterion_9_witness_reproduction():
    """find_conjugation recovers replay-verified witnesses for at least five
    in-text conjugations, and the quoted parameter choices replay too."""
    found = 0
    details = []
    for target_id, source, quoted in _witness_cases():
        target = BY_ID[target_id].operator
        assert rb_residual(source).is_zero(), target_id
        # the quoted parameters are themselves a valid witness
        assert Witness((PsiStep(quoted),)).transform_operator(source) == target, \
            target_id
        result = find_conjugation(source, target, allow_theta=False)
        assert result.status == "found", target_id
        assert result.witness.transform_operator(source) == target
        found += 1
        details.append(target_id)
    # a flip case on top: a span family against its mirror image
    src = _op({"e22": "e12"})
    target = conjugate_operator(src, theta13())
    result = find_conjugation(src, target, allow_theta=True)
    assert result.status == "found"
    assert result.witness.transform_operator(src) == target
    found += 1
    details.append("flip")
    _report(9, found >= 5, f"{found} witnesses replayed ({', '.join(details)})")
    assert found >= 5


def test_criterion_10_fault_injection():
    """Twenty single-entry mutations are each detected with a pinpointed
    nonzero residual cell."""
    rng = random.Random(20240822)
    targets = [e for e in CERTIFIED if not e.params]
    detected = 0
    attempts = 0
    while detected < 20 and attempts < 200:
        attempts += 1
        entry = targets[attempts % len(targets)]
        src = rng.choice(basis_indices(3))
        dst = rng.choice(basis_indices(3))
        columns = dict(entry.operator.columns)
        columns[src] = columns.get(src, UTMatrix.zero(3)) + \
            UTMatrix.basis(3, *dst).scale(Fraction(rng.randint(1, 4)))
        mutated = Operator(3, columns)
        residual = rb_residual(mutated)
        if residual.is_zero():
            continue  # landed on another valid family; not a fault
        pair, pos, value = residual.first_nonzero()
        assert value != 0 and residual.entries[pair, pos] == value
        detected += 1
    _report(10, detected == 20, f"{detected}/20 mutations pinpointed "
                                f"in {attempts} draws")
    assert detected == 20
