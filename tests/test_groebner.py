"""Groebner engine against hand-computed oracles and its own invariants."""

import heapq
import random
from bisect import insort
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rbu3 import groebner
from rbu3.catalog import case_preset
from rbu3.matrices import rref
from rbu3.poly import (MultiPoly, VarTable, elimination, grevlex, lex,
                       mono_divides, mono_mul, parse_poly, write_json)
from rbu3.groebner import (Limits, PolySystem, ResourceLimitExceeded,
                           autoreduce, buchberger, eliminate, ideal_member,
                           normal_form, s_polynomial)
from rbu3.operators import generate_system

from reference import degree, divides, leading

XY = VarTable(["x", "y"])


# tuple-monomial references for the packed kernels
def mono_div(a, b):
    return tuple(x - y for x, y in zip(a, b))


def mono_lcm(a, b):
    return tuple(max(x, y) for x, y in zip(a, b))


def p(text, table=XY):
    return parse_poly(text, table)


def lex_system(*texts, table=XY):
    return PolySystem(table, tuple(p(t, table) for t in texts), lex())


def test_s_polynomial_hand_example():
    # y*(x^2-1) - x*(x*y-1) = x - y
    s = s_polynomial(p("x^2 - 1"), p("x*y - 1"), lex())
    assert s == p("x - y")


def test_s_polynomial_of_equal_inputs_is_zero():
    f = p("x^2 + y")
    assert s_polynomial(f, f, lex()).is_zero()


def test_s_polynomial_zero_input_rejected():
    with pytest.raises(ValueError):
        s_polynomial(MultiPoly(XY, {}), p("x"), lex())


def test_coprime_leading_monomials_reduce_to_zero():
    f, g = p("x^2"), p("y^2")
    s = s_polynomial(f, g, lex())
    assert normal_form(s, [f, g], lex()).is_zero()


def test_normal_form_hand_division():
    # x^2*y = y*(x^2 - y) + y^2
    assert normal_form(p("x^2*y"), [p("x^2 - y")], grevlex()) == p("y^2")
    f = p("x^3 - 2*x*y + 1")
    assert normal_form(f, [f], grevlex()).is_zero()
    assert normal_form(p("x - y"), [p("x - y"), p("y^2 - 1")], lex()).is_zero()


def test_normal_form_idempotent():
    basis = [p("x^2 - y"), p("x*y - 1")]
    f = p("x^3*y^2 - 4*x + 3")
    once = normal_form(f, basis, grevlex())
    assert normal_form(once, basis, grevlex()) == once


def test_buchberger_lex_oracle():
    gb = buchberger(lex_system("x^2 - 1", "x*y - 1"))
    assert [g.to_str(lex()) for g in gb.basis] == ["x - y", "y^2 - 1"]
    assert gb.reduced
    assert gb.verify()


def test_single_linear_generator_is_its_own_basis():
    gb = buchberger(lex_system("x - y"))
    assert [g.to_str(lex()) for g in gb.basis] == ["x - y"]


def test_already_reduced_basis_returned_unchanged():
    first = buchberger(lex_system("x^2 - 1", "x*y - 1"))
    again = buchberger(PolySystem(XY, first.basis, lex()))
    assert again.basis == first.basis


def test_reduced_basis_invariant_under_generator_permutation():
    texts = ("x^2 + y^2 - 1", "x*y - 2", "x - y^3")
    gb1 = buchberger(lex_system(*texts))
    gb2 = buchberger(lex_system(*reversed(texts)))
    assert gb1.basis == gb2.basis


def test_ideal_member_examples():
    gb = buchberger(lex_system("x^2 - 1", "x*y - 1"))
    assert ideal_member(p("x - y"), gb)
    principal = buchberger(PolySystem(XY, (p("x^2"),), grevlex()))
    assert not ideal_member(p("x"), principal)


def test_eliminate_parabola():
    table = VarTable(["t", "x", "y"])
    system = PolySystem(table, (parse_poly("x - t", table),
                                parse_poly("y - t^2", table)))
    kept = eliminate(system, ["x", "y"])
    assert [str(g) for g in kept.gens] == ["x^2 - y"]


def test_eliminate_keep_everything_is_identity():
    system = lex_system("x^2 - 1", "x*y - 1")
    assert eliminate(system, ["x", "y"]) is system


def test_eliminate_detects_forced_inconsistency():
    table = VarTable(["u", "x"])
    system = PolySystem(table, (parse_poly("u*x - 1", table),
                                parse_poly("x", table)))
    kept = eliminate(system, ["x"])
    assert len(kept.gens) == 1 and kept.gens[0].is_constant()


def test_resource_limit_raises_with_partial_state():
    table = VarTable(["x", "y", "z"])
    system = PolySystem(table, tuple(parse_poly(t, table) for t in
                                     ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")),
                        grevlex())
    with pytest.raises(ResourceLimitExceeded) as info:
        buchberger(system, Limits(max_pairs=0))
    assert info.value.partial  # still a generating set of the same ideal
    for g in system.gens:
        # every partial element certificate: original generators present
        assert normal_form(g, info.value.partial, grevlex()).is_zero()


@pytest.mark.parametrize("bad", [{"max_pairs": -1}, {"deadline": -5.0},
                                 {"deadline": float("nan")}])
def test_limits_reject_a_negative_or_nan_bound(bad):
    with pytest.raises(ValueError, match="must be nonnegative"):
        Limits(**bad)


def test_limits_accept_zero_and_infinity():
    # 0 and 0.0 are limits already spent, inf a deadline never reached
    for good in ({"max_pairs": 0}, {"deadline": 0.0}, {"deadline": float("inf")}):
        assert Limits(**good).start() == Limits(**good)
    assert Limits(deadline=0.0).start().expired()
    assert not Limits(deadline=float("inf")).start().expired()


def test_start_fixes_the_deadline_once_on_a_copy(fake_clock):
    limits = Limits(max_pairs=5, deadline=3.0)
    started = limits.start()  # reads 1: the deadline falls at 4
    assert started is not limits and started == limits
    assert started.start() is started and fake_clock.now == 1
    assert [started.expired() for _ in range(4)] == [False, False, True, True]
    # the unstarted limits are untouched: starting them again gives a new deadline
    again = limits.start()  # reads 6: the deadline falls at 9
    assert again is not started and not again.expired()
    # without a deadline, start reads no clock and expired never holds
    assert not Limits().start().expired() and fake_clock.now == 8


def test_deadline_holds_inside_the_initial_autoreduce():
    """sec7's 195 generators take a long autoreduce before the first S-pair;
    an expired deadline stops it at its first polynomial."""
    from rbu3.catalog import case_preset
    from rbu3.operators import generate_system
    system, _ = generate_system(case_preset("sec7").ansatz())
    with pytest.raises(ResourceLimitExceeded) as info:
        buchberger(system, Limits(deadline=0.0))
    assert info.value.stats.pairs_considered == 0
    assert info.value.partial
    assert info.value.partial == list(system.gens)


class HookLimits:
    """A limits object for ``autoreduce`` whose ``check`` hands each partial
    (a callable) to ``hook``, which records it or raises to stop."""

    def __init__(self, hook):
        self.hook = hook

    def start(self):
        return self

    def check(self, stats, partial):
        self.hook(partial)


def test_autoreduce_stopped_midway_still_generates_the_ideal():
    """A stop before any polynomial of any autoreduce pass leaves the
    reduced part plus the unreduced rest: the same ideal, so the same
    reduced Groebner basis."""
    table = VarTable(["x", "y", "z"])
    gens = tuple(parse_poly(t, table) for t in (
        "x^2 - y*z", "2*x^2 - 2*y*z + x", "y^2 - x*z", "x + y - z",
        "z^2 - x*y", "x*y + 3*y"))
    expected = buchberger(PolySystem(table, gens, grevlex())).basis

    class Stop(Exception):
        pass

    calls = 0
    while True:
        seen = []

        def check(partial):
            seen.append(partial)
            if len(seen) > calls:
                raise Stop

        try:
            autoreduce(gens, grevlex(), HookLimits(check))
        except Stop:
            partial = seen[-1]()
            assert buchberger(PolySystem(table, tuple(partial),
                                         grevlex())).basis == expected
            calls += 1
            continue
        break
    assert calls > len(gens)  # more than one pass was interrupted


def test_autoreduce_divides_by_monomial_multiples():
    """Autoreduction is more than row reduction: x - 1 reduces x^2 - y
    through its multiple x*(x - 1), while the reduced row-echelon form of
    the coefficient rows (columns x^2, x, y, 1) leaves x^2 - y in place."""
    out = autoreduce([p("x^2 - y"), p("x - 1")], grevlex())
    assert [g.to_str(grevlex()) for g in out] == ["x - 1", "y - 1"]
    rows = [[1, 0, -1, 0], [0, 1, 0, -1]]
    assert rref(rows)[0] == rows


def test_buchberger_closes_with_a_checked_autoreduce(monkeypatch):
    """The reduced basis comes from an interreduction that holds the
    limits."""
    calls = []
    original = groebner._interreduce
    table = VarTable(["x", "y", "z"])

    def spy(entries, pk, check):
        out = original(entries, pk, check)
        calls.append((check, out, [pk.poly(table, e[3]) for e in out]))
        return out

    monkeypatch.setattr(groebner, "_interreduce", spy)
    system = PolySystem(table, tuple(parse_poly(t, table) for t in
                                     ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")),
                        grevlex())
    gb = buchberger(system, Limits(max_pairs=1000))
    assert gb.stats.restarts == 0 and len(calls) == 2  # initial, closing
    check, entries, out = calls[-1]
    assert check is not None and out == list(gb.basis)
    # the check is the run's own pair limit, read from the run's stats
    gb.stats.pairs_considered = 1001
    with pytest.raises(ResourceLimitExceeded) as info:
        check(lambda: entries)
    assert info.value.partial == out


def test_partial_and_basis_hold_polynomials_over_the_system_table():
    table = VarTable(["x", "y", "z"])
    system = PolySystem(table, tuple(parse_poly(t, table) for t in
                                     ("x^2 - y*z", "y^2 - x*z", "z^2 - x*y")),
                        grevlex())
    with pytest.raises(ResourceLimitExceeded) as info:
        buchberger(system, Limits(max_pairs=2))
    gb = buchberger(system)
    for polys in (info.value.partial, gb.basis):
        assert polys and all(isinstance(g, MultiPoly) and g.table == table
                             for g in polys)


# -- packed monomials ------------------------------------------------------------


@st.composite
def packed_cases(draw):
    """A packing (0 to 5 variables, every order, an elimination block up to
    one past the last variable, widths 1, 2 and the generic 16 bytes) and
    two monomials with exponents below the guard bits."""
    n = draw(st.integers(0, 5))
    order = draw(st.sampled_from(
        [lex(), grevlex()] + [elimination(k) for k in range(1, n + 2)]))
    width = draw(st.sampled_from([1, 2, 16]))
    top = draw(st.sampled_from([3, (1 << (8 * width - 1)) - 1]))
    monos = st.tuples(*[st.integers(0, top)] * n)
    return groebner._packing(n, order, width), order, draw(monos), draw(monos)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(packed_cases())
@example((groebner._packing(0, grevlex(), 1), grevlex(), (), ()))
@example((groebner._packing(2, elimination(2), 1), elimination(2),
          (1, 2), (2, 1)))
@example((groebner._packing(5, elimination(2), 1), elimination(2),
          (0, 1, 127, 127, 127), (1, 0, 0, 0, 0)))
@example((groebner._packing(3, elimination(1), 1), elimination(1),
          (1, 1, 0), (1, 0, 1)))  # tied head and tail degree
def test_packed_kernels_match_the_tuple_kernels(case):
    pk, order, a, b = case
    pa, pb = pk.pack(a), pk.pack(b)
    assert pk.unpack(pa) == a and pk.unpack(pb) == b
    assert (pa < pb) == (order.key(a) < order.key(b))
    assert (pa == pb) == (a == b)
    assert divides(pk, pa, pb) == mono_divides(a, b)
    if mono_divides(b, a):
        assert pa - pb == pk.pack(mono_div(a, b))
    lcm = pk.lcm(pa, pb)
    assert pk.unpack(lcm) == mono_lcm(a, b)
    assert sum(pk.unpack(lcm)) == sum(mono_lcm(a, b))
    # halved, the exponents of a product stay below the guard bits
    a, b = tuple(e >> 1 for e in a), tuple(e >> 1 for e in b)
    product = pk.pack(a) + pk.pack(b)
    assert product == pk.pack(mono_mul(a, b)) and not product & pk.guards


@st.composite
def lcm_degree_cases(draw):
    """A packing 1 or 2 bytes wide and two monomials with exponents up to
    the guard bit, so the degree sum of the two often passes the field
    limit 2**(8 * width)."""
    n = draw(st.integers(1, 5))
    order = draw(st.sampled_from([lex(), grevlex(), elimination(1)]))
    width = draw(st.sampled_from([1, 2]))
    top = (1 << (8 * width - 1)) - 1
    exps = st.integers(0, 3) | st.integers(top - 3, top) | st.integers(0, top)
    monos = st.tuples(*[exps] * n)
    return groebner._packing(n, order, width), draw(monos), draw(monos)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(lcm_degree_cases())
@example((groebner._packing(3, grevlex(), 1), (127, 0, 0), (0, 127, 1)))
@example((groebner._packing(3, grevlex(), 1), (127, 0, 0), (0, 127, 2)))
@example((groebner._packing(3, lex(), 1), (127, 1, 0), (127, 1, 0)))
@example((groebner._packing(3, grevlex(), 2), (32767, 0, 0), (0, 32767, 1)))
@example((groebner._packing(3, lex(), 2), (32767, 0, 0), (0, 32767, 2)))
def test_lcm_degree_matches_the_unpacked_sum(case):
    pk, a, b = case
    lcm = pk.lcm(pk.pack(a), pk.pack(b))
    assert degree(pk, lcm, sum(a) + sum(b)) == sum(pk.unpack(lcm))
    assert degree(pk, pk.pack(a) & pk.low, sum(a)) == sum(a)
    # the pair loop builds the packed lcm from its degree (under grevlex)
    assert (pk.monomial(lcm, degree(pk, lcm, sum(a) + sum(b)))
            == pk.pack(pk.unpack(lcm)))


def test_lcm_degree_at_the_field_limit_takes_the_unpacked_sum():
    pk = groebner._packing(3, grevlex(), 1)
    word = pk.lcm(pk.pack((127, 0, 0)), pk.pack((0, 127, 2)))
    # the top field of the product wraps to 256 mod 256: the sum carried
    assert (word * pk.ones >> pk.top) & pk.field == 0
    assert degree(pk, word, 256) == 256


def test_entry_tails_are_ints_where_the_values_are_integral():
    """Each tail entry is -c/lc, an int whenever that is integral: for a
    lead 1 (a remainder's integral Fraction included), for an int lead
    dividing an int coefficient (-1 included), and after making monic."""
    pk = groebner._packing(2, grevlex(), 1)
    x2, xy, y, one = (pk.pack(m) for m in ((2, 0), (1, 1), (0, 1), (0, 0)))

    def tail(terms, monic=False):
        return {m: c for m, c in pk.entry(terms, monic)[2]}

    cases = [
        (({x2: 1, xy: Fraction(3), y: Fraction(1, 2)},),
         {xy: -3, y: Fraction(-1, 2)}),
        (({x2: -1, xy: 4, y: Fraction(2)},), {xy: 4, y: 2}),
        (({x2: 3, xy: 6, y: -9, one: 2},), {xy: -2, y: 3, one: Fraction(-2, 3)}),
        (({x2: Fraction(2, 3), xy: 4},), {xy: -6}),
        (({x2: 2, xy: 6, y: Fraction(3, 1)}, True), {xy: -3, y: Fraction(-3, 2)}),
    ]
    for args, expected in cases:
        got = tail(*args)
        assert got == expected, args
        assert list(map(type, got.values())) == list(map(type, expected.values()))


def test_widths_are_derived_from_the_largest_exponent():
    def width(text):
        return groebner._fit([p(text)])
    assert [width("x + 1"), width("x^127"), width("x^128*y"), width("y^32767"),
            width("x^32768"), width("x^40000")] == [1, 1, 2, 2, 4, 4]


def test_wide_exponents_take_wide_fields():
    """x - y^40000 reduces by y^2 - 1 to x - 1 in 20000 steps; the fields
    are derived four bytes wide from the input."""
    gb = buchberger(lex_system("x - y^40000", "y^2 - 1"))
    assert [g.to_str(lex()) for g in gb.basis] == ["x - 1", "y^2 - 1"]


def test_overflowing_products_widen_the_fields():
    """The inputs fit one-byte fields (exponents below 128), but their
    S-pair holds y^220 and their basis y^320: a product that reaches a
    guard bit raises, and the call is redone with wider fields instead of
    wrapping an exponent into the next field."""
    gens = ("x^2 - y^120", "x*y^100 - 1")
    pk = groebner._packing(2, lex(), groebner._fit([p(t) for t in gens]))
    assert pk.width == 1
    f, g = (pk.entry(pk.terms(p(t))) for t in gens)
    with pytest.raises(groebner._Overflow):
        groebner._s_terms(pk, f, g, pk.lcm(f[1], g[1]))
    with pytest.raises(groebner._Overflow):
        groebner._reduce(pk.terms(p("x*y^120")), pk.view([p("x - y^100")]), pk)
    assert s_polynomial(p(gens[0]), p(gens[1]), lex()) == p("x - y^220")
    # with x = y^-100 from the second generator, the first says y^320 = 1
    gb = buchberger(lex_system(*gens))
    assert [g.to_str(lex()) for g in gb.basis] == ["x - y^220", "y^320 - 1"]
    assert gb.verify()
    assert gb.contains(p("x^2 - y^440"))
    assert normal_form(p("x*y^200"), [p("x - y^100")], lex()) == p("y^300")
    assert autoreduce([p("x*y^100 - 1"), p("x - y^100")], lex()) == [
        p("x - y^100"), p("y^200 - 1")]


def test_system_json_round_trip(tmp_path):
    system = lex_system("x^2 - 1", "x*y - 1")
    path = tmp_path / "sys.json"
    write_json(path, system.to_json())
    loaded = PolySystem.load(path)
    assert loaded.gens == system.gens and loaded.order == system.order


# -- randomized principal-ideal oracle ------------------------------------------


def divides_exactly(dividend, divisor, order=grevlex()):
    """Independent oracle: long division by the single polynomial `divisor`."""
    remainder = dividend
    while not remainder.is_zero():
        mono, coeff = leading(remainder, order)
        lm, lc = leading(divisor, order)
        if any(m < l for m, l in zip(mono, lm)):
            return False
        shift = tuple(m - l for m, l in zip(mono, lm))
        term = MultiPoly(dividend.table, {shift: coeff / lc})
        remainder = remainder - term * divisor
    return True


def random_poly(rng, table, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(rng.randint(1, max_terms)):
        mono = tuple(rng.randint(0, max_exp) for _ in table.names)
        terms[mono] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
    return MultiPoly(table, terms)


def test_principal_ideal_membership_matches_division_oracle():
    rng = random.Random(20240817)
    hits = 0
    trials = 0
    while trials < 200:
        f = random_poly(rng, XY)
        if f.is_zero():
            continue
        trials += 1
        gb = buchberger(PolySystem(XY, (f,), grevlex()))
        q = random_poly(rng, XY, max_terms=3)
        candidate = q * f
        if rng.random() < 0.5 and not f.is_constant():
            candidate = candidate + MultiPoly.const(XY, Fraction(1))
        member = ideal_member(candidate, gb)
        oracle = divides_exactly(candidate, f) if not candidate.is_zero() else True
        assert member == oracle, (str(f), str(candidate))
        hits += member
    assert 0 < hits < trials  # both outcomes exercised


@st.composite
def small_systems(draw):
    table = XY
    n = draw(st.integers(1, 3))
    gens = []
    for _ in range(n):
        terms = {}
        for _ in range(draw(st.integers(1, 3))):
            mono = (draw(st.integers(0, 2)), draw(st.integers(0, 2)))
            terms[mono] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
        poly = MultiPoly(table, terms)
        if not poly.is_zero():
            gens.append(poly)
    if not gens:
        gens = [parse_poly("x", table)]
    return PolySystem(table, tuple(gens), grevlex())


@settings(derandomize=True, max_examples=25, deadline=None)
@given(small_systems())
def test_buchberger_output_verifies(system):
    gb = buchberger(system, Limits(max_pairs=20000))
    assert gb.verify()


# -- division order: reference loop ---------------------------------------------


def reference_normal_form(p, basis, order):
    """Plain multivariate division: the largest remaining term found by a
    full scan, divided by the first basis element in stable descending
    leading-monomial order."""
    view = [(*leading(g, order), g) for g in basis if not g.is_zero()]
    view.sort(key=lambda t: order.key(t[0]), reverse=True)
    work = dict(p.terms)
    remainder = {}
    while work:
        mono = max(work, key=order.key)
        coeff = work.pop(mono)
        for lm, lc, g in view:
            if mono_divides(lm, mono):
                break
        else:
            remainder[mono] = coeff
            continue
        shift = mono_div(mono, lm)
        for m2, c2 in g.terms.items():
            if m2 != lm:
                target = mono_mul(shift, m2)
                acc = work.get(target, 0) - coeff / lc * c2
                if acc:
                    work[target] = acc
                else:
                    work.pop(target, None)
    return MultiPoly(p.table, remainder)


XYZ = VarTable(["x", "y", "z"])


@st.composite
def xyz_polys(draw, max_terms=4, max_exp=2):
    terms = {}
    for _ in range(draw(st.integers(1, max_terms))):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in range(3))
        terms[mono] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return MultiPoly(XYZ, terms)


@st.composite
def division_problems(draw):
    """A dividend, a basis that is generally not a Groebner basis, an order.

    Leads over three variables of degree at most 2 are often disjoint in
    support; a copy ``g + c`` or ``c * g`` of a basis element repeats its
    leading monomial, so the tie order among equal leads matters too.
    """
    basis = [g for g in draw(st.lists(xyz_polys(), min_size=1, max_size=4))
             if not g.is_constant()]
    for g in list(basis):
        if draw(st.booleans()):
            c = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
            basis.append(g + c if draw(st.booleans()) else g * c)
    basis = draw(st.permutations(basis))
    p = draw(xyz_polys(max_terms=6, max_exp=3))
    order = draw(st.sampled_from([lex(), grevlex(), elimination(1)]))
    return p, basis, order


@settings(derandomize=True, max_examples=300, deadline=None)
@given(division_problems())
def test_normal_form_matches_reference_division(problem):
    p, basis, order = problem
    assert normal_form(p, basis, order) == reference_normal_form(p, basis, order)


# -- autoreduce: reference loop -------------------------------------------------


def reference_autoreduce(polys, order):
    """The fixpoint loop that stops only after a pass that changes nothing:
    each element, in turn, is divided by the already reduced ones and the
    rest, made monic, and dropped when zero."""
    current = [g for g in polys if not g.is_zero()]
    changed = True
    while changed:
        changed = False
        done = []
        for i, g in enumerate(current):
            r = normal_form(g, done + current[i + 1:], order)
            if r.is_zero():
                changed = True
                continue
            lc = leading(r, order)[1]
            r = MultiPoly(r.table, {m: c / lc for m, c in r.terms.items()})
            changed = changed or r != g
            done.append(r)
        current = done
    return sorted(current, key=lambda g: order.key(leading(g, order)[0]),
                  reverse=True)


def same_with_term_order(got, expected):
    return got == expected and [list(g.terms) for g in got] == [
        list(g.terms) for g in expected]


LINEAR = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, 0)]


@st.composite
def linear_polys(draw):
    monos = draw(st.lists(st.sampled_from(LINEAR), min_size=1, max_size=3))
    return MultiPoly(XYZ, {m: Fraction(draw(st.integers(-3, 3)),
                                       draw(st.integers(1, 2))) for m in monos})


@st.composite
def autoreduce_inputs(draw):
    """Small sets with zeros, duplicates, scaled or shifted copies, and
    linear elements, whose substitutions move leads across passes."""
    polys = draw(st.lists(st.one_of(xyz_polys(), linear_polys()),
                          min_size=1, max_size=5))
    for g in list(polys):
        if draw(st.booleans()):
            c = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
            polys.append(draw(st.sampled_from([g, g * c, g + c])))
    if draw(st.booleans()):
        polys.append(MultiPoly(XYZ, {}))
    order = draw(st.sampled_from([lex(), grevlex(), elimination(1)]))
    return draw(st.permutations(polys)), order


@settings(derandomize=True, max_examples=300, deadline=None)
@given(autoreduce_inputs())
@example(([parse_poly(t, XYZ) for t in ("x*y + z", "y - x", "x + 2*z")],
          lex()))  # a lead still moves in the second pass
def test_autoreduce_matches_reference_loop(problem):
    polys, order = problem
    assert same_with_term_order(autoreduce(polys, order),
                                reference_autoreduce(polys, order))


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.lists(xyz_polys(max_terms=3), min_size=1, max_size=3),
       st.sampled_from([lex(), grevlex(), elimination(1)]), st.randoms())
def test_autoreduce_of_a_groebner_basis_and_its_multiples(gens, order, rng):
    """A set that contains a Groebner basis autoreduces to the reduced
    basis, whatever else of the ideal it holds."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return
    try:
        basis = list(buchberger(PolySystem(XYZ, tuple(gens), order),
                                Limits(max_pairs=300)).basis)
    except ResourceLimitExceeded:
        return
    extras = [MultiPoly(XYZ, {mono: Fraction(rng.randint(1, 3))}) * g
              for g in basis
              for mono in [tuple(rng.randint(0, 1) for _ in range(3))]]
    extras += [f + g for i, f in enumerate(basis) for g in basis[i + 1:]]
    mixed = basis + extras
    rng.shuffle(mixed)
    assert same_with_term_order(autoreduce(mixed, order), basis)


# -- autoreduce: the pass loop with a fresh view per element ---------------------


def pass_loop_autoreduce(polys, order, check=None, stop_at_constant=True):
    """The reference for ``groebner._interreduce``: the same passes with
    each element's divisor view sorted afresh from the remainders so far and
    the elements still to come, and the partial built as a list before each
    element.  Without ``stop_at_constant`` the loop runs on after a
    constant appears, reducing every element against it, until a pass moves
    no leading monomial."""
    polys = [p for p in polys if not p.is_zero()]
    if not polys:
        return []
    table = polys[0].table
    if stop_at_constant and any(p.is_constant() for p in polys):
        return [MultiPoly.const(table, 1)]

    def run(pk):
        def unpack(entries):
            return [pk.poly(table, e[3]) for e in entries]

        current = [pk.entry(pk.terms(p)) for p in polys]
        moved = True
        while moved:
            moved = False
            nxt = []
            for i, entry in enumerate(current):
                if check is not None:
                    check(unpack(nxt + current[i:]))
                view = groebner._View(nxt + current[i + 1:])
                r = groebner._reduce(dict(entry[3]), view, pk)
                if not r:
                    continue
                lc = next(iter(r.values()))
                reduced = pk.entry({m: Fraction(c) / lc for m, c in r.items()})
                if stop_at_constant and not reduced[0]:
                    return unpack([reduced])
                moved = moved or reduced[0] != entry[0]
                nxt.append(reduced)
            current = nxt
        current.sort(key=groebner._lead, reverse=True)
        return unpack(current)
    return groebner._packed(run, polys, table, order)


@st.composite
def tied_lead_systems(draw):
    """Sets over x, y, z in which several elements share a leading
    monomial (scaled copies, and copies shifted by a constant), so the
    divisor view holds ties among the elements still to come."""
    polys = []
    for g in draw(st.lists(xyz_polys(max_terms=3), min_size=1, max_size=3)):
        polys.append(g)
        for _ in range(draw(st.integers(0, 2))):
            c = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
            polys.append(draw(st.sampled_from([g * c, g + c, g * c - 1])))
    order = draw(st.sampled_from([lex(), grevlex(), elimination(1)]))
    return draw(st.permutations(polys)), order


class Stop(Exception):
    pass


def stopped(run, at):
    """``run(check)`` with a check that raises at its call number ``at``:
    the partial of every call (a callable's value), and the output, None
    when stopped."""
    seen = []

    def check(partial):
        seen.append(partial() if callable(partial) else partial)
        if len(seen) > at:
            raise Stop
    try:
        return seen, run(check)
    except Stop:
        return seen, None


@settings(derandomize=True, max_examples=200, deadline=None)
@given(tied_lead_systems())
@example(([parse_poly(t, XYZ) for t in ("x*y + z", "2*x*y - 1", "y - x",
                                        "x*y + z + 1", "x + 2*z")], lex()))
def test_interreduction_matches_the_pass_loop_at_every_stop(problem):
    polys, order = problem
    at = 0
    while True:
        seen, out = stopped(
            lambda c: autoreduce(polys, order, HookLimits(c)), at)
        expected_seen, expected = stopped(
            lambda c: pass_loop_autoreduce(polys, order, c), at)
        assert len(seen) == len(expected_seen)
        assert all(same_with_term_order(a, b)
                   for a, b in zip(seen, expected_seen))
        if expected is None:
            assert out is None
            at += 1
            continue
        assert same_with_term_order(out, expected)
        break


# -- autoreduce: the constant rule ----------------------------------------------


def fixpoint_autoreduce(polys, order):
    """``autoreduce`` without the constant rule."""
    return pass_loop_autoreduce(polys, order, stop_at_constant=False)


ONE = MultiPoly.const(XYZ, 1)


@st.composite
def systems_with_a_unit(draw):
    """Small sets holding a nonzero constant, or a monomial m next to
    ``m + c`` or ``m*q + c``, which reduce to the constant c when m is their
    divisor."""
    polys = draw(st.lists(xyz_polys(), min_size=0, max_size=4))
    c = Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 2)))
    kind = draw(st.sampled_from(["constant", "shift", "multiple"]))
    if kind == "constant":
        polys.append(MultiPoly.const(XYZ, c))
    else:
        m = MultiPoly(XYZ, {tuple(draw(st.integers(0, 2)) for _ in range(3)):
                            Fraction(draw(st.integers(1, 3)))})
        q = ONE if kind == "shift" else draw(xyz_polys(max_terms=3))
        polys += [m, m * q + c]
    order = draw(st.sampled_from([lex(), grevlex(), elimination(1)]))
    return draw(st.permutations(polys)), order


def xyz(*texts):
    return [parse_poly(t, XYZ) for t in texts]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(systems_with_a_unit())
# a constant appears in the second pass, and in the third
@example((xyz("3/2*x^2*y - 2*y^2", "-2*x^2*y + 3/2", "-2*x^2 + 1"), lex()))
@example((xyz("-3*y*z - 1", "2*x^2 - x*y^2*z^2 - y^2",
              "3/2*x*y^2*z^2 + 1/2*y^2", "3/2*y*z^2 + 1/2*y"), lex()))
def test_autoreduce_stops_at_the_first_constant(problem):
    polys, order = problem
    expected = fixpoint_autoreduce(polys, order)
    got = autoreduce(polys, order)
    assert same_with_term_order(got, expected)
    if any(g.is_constant() for g in polys if not g.is_zero()):
        assert got == [ONE]


def test_autoreduce_returns_one_in_the_pass_that_finds_it():
    # x*y*z - 1 reduces to -1 by the monomial x*y*z, first in the first pass
    checks = []
    out = autoreduce(xyz("x*y*z - 1", "x^2 + y", "x*y*z"), lex(),
                     HookLimits(checks.append))
    assert out == [ONE] and len(checks) == 1
    # a constant input is answered before any reduction
    checks.clear()
    assert autoreduce(xyz("x - y", "3/2"), lex(),
                      HookLimits(checks.append)) == [ONE]
    assert checks == []


@pytest.mark.parametrize("order", [lex(), grevlex()])
def test_a_constant_generator_needs_no_pair(order):
    system = PolySystem(XYZ, tuple(xyz("x^2 - y*z", "y^2 - x*z", "-2/3")),
                        order)
    gb = buchberger(system)
    assert gb.basis == (ONE,)
    assert gb.stats == groebner.GBStats(0, 0, 0, 0, 1)


# -- divisor choice: the scan from the top of the view ---------------------------


def reference_reduce(work, view, pk, chosen):
    """``groebner._reduce`` with every popped term scanning the view from
    its first entry; appends each chosen divisor's view position to
    ``chosen``."""
    guards, low = pk.guards, pk.low
    heap = [-m for m in work]
    heapq.heapify(heap)
    remainder = {}
    while heap:
        m = -heapq.heappop(heap)
        coeff = work.pop(m)
        if not coeff:
            continue
        probe = (m & low) | guards
        for pos, entry in enumerate(view):
            if (probe - entry[1]) & guards == guards:
                break
        else:
            remainder[m] = coeff
            continue
        chosen.append(pos)
        shift = m - entry[0]
        for t, c in entry[2]:
            t += shift
            acc = work.get(t)
            if acc is None:
                work[t] = coeff * c
                heapq.heappush(heap, -t)
            else:
                work[t] = acc + coeff * c
    return remainder


class TrackedEntry(tuple):
    """A view entry that logs its view position when its tail is read,
    which ``_reduce`` does only for the divisor it chose."""

    def __getitem__(self, i):
        if i == 2:
            self.log.append(self.pos)
        return tuple.__getitem__(self, i)


def assert_same_divisions(pk, dividends, view):
    """``_reduce`` picks the reference's divisors and leaves its remainder,
    terms in the same order, for every dividend; returns the remainders."""
    view = list(view)
    log = []
    tracked = []
    for pos, entry in enumerate(view):
        entry = TrackedEntry(entry)
        entry.pos, entry.log = pos, log
        tracked.append(entry)
    remainders = []
    for terms in dividends:
        chosen = []
        expected = reference_reduce(dict(terms), view, pk, chosen)
        log.clear()
        got = groebner._reduce(dict(terms), groebner._View(tracked), pk)
        assert list(got.items()) == list(expected.items())
        assert log == chosen
        remainders.append(got)
    return remainders


def preset_system_and_basis(name):
    spec = case_preset(name)
    system, _ = generate_system(spec.ansatz())
    gb = buchberger(system, Limits(max_pairs=200000, deadline=600.0))
    pk = groebner._packing(len(system.table), system.order,
                           groebner._fit(system.gens + gb.basis))
    return system, gb, pk


def test_forward_scan_keeps_the_divisors_on_the_sec7_s_polynomials():
    _, gb, pk = preset_system_and_basis("sec7")
    view = list(pk.view(gb.basis))
    dividends = [groebner._s_terms(pk, f, g,
                                   pk.pack(pk.unpack(pk.lcm(f[1], g[1]))))
                 for i, f in enumerate(view) for g in view[i + 1:]]
    assert len(dividends) == 406
    assert not any(assert_same_divisions(pk, dividends, view))


def test_forward_scan_keeps_the_divisors_on_the_sec6_generators():
    system, gb, pk = preset_system_and_basis("sec6")
    dividends = [pk.terms(g) for g in system.gens]
    assert not any(assert_same_divisions(pk, dividends, pk.view(gb.basis)))
    # nonzero remainders too: each generator by the view of the later ones
    remainders = [
        assert_same_divisions(pk, [terms], pk.view(system.gens[i + 1:]))[0]
        for i, terms in enumerate(dividends)]
    assert sum(map(bool, remainders)) > len(remainders) // 2


# -- the pair loop: a flat view and the intersection chain rule -----------------


def pair_loop_buchberger(system, max_pairs=None):
    """The reference for ``groebner._buchberger``: the pass loop opens and
    closes it, and its pair loop keeps a flat divisor view in stable
    descending lead order, divides by ``reference_reduce`` (a scan from the
    top) and tests the chain criterion on ``done[i] & done[j]``.  Fields
    are 8 bytes wide, so no exponent here reaches a guard bit.  Past
    ``max_pairs`` pairs it raises with the entries so far and the stats."""
    table, order = system.table, system.order
    pk = groebner._packing(len(table), order, 8)
    guards = pk.guards
    stats = groebner.GBStats()
    entries = [pk.entry(pk.terms(g))
               for g in pass_loop_autoreduce(system.gens, order)]
    leads = [e[1] for e in entries]
    degs = [sum(pk.unpack(m)) for m in leads]
    view = entries[:]

    def pair(i, j):
        lcm = pk.lcm(leads[i], leads[j])
        return (degree(pk, lcm, degs[i] + degs[j]), i, j, lcm)

    heap = [pair(i, j) for j in range(len(entries)) for i in range(j)]
    heapq.heapify(heap)
    done = [set() for _ in entries]
    while heap:
        stats.pairs_considered += 1
        if max_pairs is not None and stats.pairs_considered > max_pairs:
            raise ResourceLimitExceeded("pairs", pk.polys(table, entries), stats)
        _, i, j, lcm = heapq.heappop(heap)
        skipped = lcm == leads[i] + leads[j]
        if not skipped:
            probe = lcm | guards
            skipped = any((probe - leads[k]) & guards == guards
                          for k in done[i] & done[j])
        done[i].add(j)
        done[j].add(i)
        if skipped:
            continue
        lcm = pk.pack(pk.unpack(lcm))
        r = reference_reduce(groebner._s_terms(pk, entries[i], entries[j], lcm),
                             view, pk, [])
        stats.pairs_reduced += 1
        if not r:
            stats.zero_reductions += 1
            continue
        entry = pk.entry(r, monic=True)
        entries.append(entry)
        leads.append(entry[1])
        degs.append(sum(pk.unpack(entry[1])))
        done.append(set())
        # after every entry whose lead is not smaller, as a stable sort would
        insort(view, entry, key=lambda e: -e[0])
        for k in range(len(entries) - 1):
            heapq.heappush(heap, pair(k, len(entries) - 1))
    basis = pass_loop_autoreduce(pk.polys(table, entries), order)
    stats.basis_size = len(basis)
    return basis, stats


QUADRICS = [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0), (0, 1, 1), (0, 0, 2)]


@st.composite
def pair_loop_systems(draw):
    """Quadrics over x, y, z (a homogeneous ideal is proper, so the pair
    loop runs) with scaled copies that tie their leads; some get a
    constant or linear shift, or a constant generator."""
    polys = []
    for _ in range(draw(st.integers(2, 5))):
        monos = draw(st.lists(st.sampled_from(QUADRICS), min_size=2, max_size=3,
                              unique=True))
        g = MultiPoly(XYZ, {m: Fraction(draw(st.integers(-3, 3)),
                                        draw(st.integers(1, 2))) for m in monos})
        if g.is_zero():
            continue
        polys.append(g)
        if draw(st.integers(0, 3)) == 0:
            polys.append(g * Fraction(draw(st.integers(1, 3)), 2))
    kind = draw(st.sampled_from(["homogeneous"] * 4 + ["shift", "constant"]))
    if kind == "shift" and polys:
        polys[-1] = polys[-1] + draw(st.sampled_from(xyz("1", "x", "y - 2")))
    if kind == "constant":
        polys.append(MultiPoly.const(XYZ, Fraction(-2, 3)))
    order = draw(st.sampled_from([lex(), grevlex(), elimination(1)]))
    return draw(st.permutations(polys)), order


@settings(derandomize=True, max_examples=150, deadline=None)
@given(pair_loop_systems())
@example((xyz("x*y - z^2", "y*z - x^2", "x*z - y^2", "2*x*y - 2*z^2"), grevlex()))
# an S-pair reduces to a constant, which then prunes pairs by the chain rule
@example((xyz("z^2 - x*z - 1", "x^2 + x + z", "1 - z^2"), elimination(1)))
# pair (2, 3) is chain-tested and its companion (2, 4) is coprime, both of
# lcm degree 2: the tie-break pops (2, 3) first, while (2, 4) is untreated,
# so (2, 3) is reduced
@example((xyz("x*z", "x^2", "x*y + 1"), lex()))
def test_pair_loop_matches_the_flat_view_reference(problem):
    polys, order = problem
    gens = tuple(g for g in polys if not g.is_zero())
    if not gens:
        return
    system = PolySystem(XYZ, gens, order)
    gb = buchberger(system)
    basis, stats = pair_loop_buchberger(system)
    assert same_with_term_order(list(gb.basis), basis)
    assert gb.stats == stats
    n = stats.pairs_considered
    for k in {0, 1, n // 2, n - 1} & set(range(n)):
        assert_same_limit_trip(system, k)


def assert_same_limit_trip(system, k):
    """``buchberger`` under ``Limits(max_pairs=k)`` raises at the pop the
    reference raises at, with its partial basis and stats."""
    with pytest.raises(ResourceLimitExceeded) as expected:
        pair_loop_buchberger(system, k)
    with pytest.raises(ResourceLimitExceeded) as info:
        buchberger(system, Limits(max_pairs=k))
    assert same_with_term_order(list(info.value.partial), expected.value.partial)
    assert info.value.stats == expected.value.stats


def test_the_pair_loop_trips_its_pair_limit_where_the_reference_does():
    system, _ = generate_system(case_preset("sec4.2").ansatz())
    assert pair_loop_buchberger(system)[1].pairs_considered == 990
    for k in (0, 1, 7, 50, 333, 989):
        assert_same_limit_trip(system, k)


def test_verify_rejects_a_tail_term_that_another_lead_divides():
    # coprime leads: Groebner bases, but y*z (z^2) is divisible by y (z);
    # in the third, z^2 divides no term, though it shares y*z's lowest field
    for order, texts in ((lex(), ("x + y*z", "y")),
                         (grevlex(), ("x*y + z^2", "z")),
                         (lex(), ("x + y*z", "y", "z^2"))):
        basis = tuple(xyz(*texts))
        system = PolySystem(XYZ, basis, order)
        assert groebner.GroebnerBasis(system, basis, False,
                                      groebner.GBStats()).verify()
        assert not groebner.GroebnerBasis(system, basis, True,
                                          groebner.GBStats()).verify()
        gb = buchberger(system)
        assert gb.basis != basis and gb.verify()


def reference_is_reduced(basis, order):
    """Every lead coefficient is 1, and no term of an element is divisible
    by the lead of another element (an equal lead included)."""
    leads = [leading(g, order) for g in basis]
    return all(c == 1 for _, c in leads) and not any(
        i != j and mono_divides(lead, m)
        for i, (lead, _) in enumerate(leads)
        for j, g in enumerate(basis) for m in g.terms)


@st.composite
def edited_bases(draw):
    """A reduced Groebner basis, left as it is or edited once: an element
    scaled, a copy with an equal lead, a monomial multiple, another
    element's multiple added to one, or a constant put in."""
    order = draw(st.sampled_from([lex(), grevlex()]))
    gens = [g for g in draw(st.lists(xyz_polys(max_terms=3), min_size=1,
                                     max_size=3)) if g] or xyz("x*y - z")
    basis = list(buchberger(PolySystem(XYZ, tuple(gens), order)).basis)
    i = draw(st.integers(0, len(basis) - 1))
    j = draw(st.integers(0, len(basis)))
    factor = draw(st.sampled_from([Fraction(2), Fraction(-1), Fraction(1, 3)]))
    edit = draw(st.sampled_from(["none", "scale", "copy", "multiple", "sum",
                                 "constant"]))
    if edit == "scale":
        basis[i] = basis[i] * factor
    elif edit == "copy":
        basis.insert(j, basis[i] * factor)
    elif edit == "multiple":
        basis.insert(j, basis[i] * XYZ.var(draw(st.sampled_from("xyz"))))
    elif edit == "sum" and j < len(basis) and j != i:
        basis[i] = basis[i] + basis[j] * factor
    elif edit == "constant":
        basis.insert(j, MultiPoly.const(XYZ, factor))
    return tuple(g for g in basis if g), order


@settings(derandomize=True, max_examples=200, deadline=None)
@given(edited_bases())
@example((tuple(xyz("x^2 - y", "2*y*z + 1")), grevlex()))  # not monic
@example((tuple(xyz("x - z", "x + y", "y + z")), lex()))  # equal leads
@example((tuple(xyz("y^2 - z", "1")), grevlex()))  # a constant
@example((tuple(xyz("1")), lex()))
# coprime leads; dividing y*z^100 by y - z^100 makes z^200, which does not
# fit the basis's one-byte fields
@example((tuple(xyz("x - y*z^100", "y - z^100")), lex()))
def test_verify_agrees_with_the_plain_reducedness_check(problem):
    basis, order = problem
    system = PolySystem(XYZ, basis, order)
    is_groebner = groebner.GroebnerBasis(system, basis, False,
                                         groebner.GBStats()).verify()
    expected = is_groebner and reference_is_reduced(basis, order)
    assert groebner.GroebnerBasis(system, basis, True,
                                  groebner.GBStats()).verify() == expected


# -- integral coefficients as ints ------------------------------------------------


def fraction_reduce(work, view, pk):
    """The oracle for ``groebner._reduce``: the same division with every
    coefficient a ``Fraction``, scanning the view from its first entry."""
    view = [(lead, word, [(m, Fraction(c)) for m, c in tail], terms, key)
            for lead, word, tail, terms, key in view]
    remainder = reference_reduce({m: Fraction(c) for m, c in work.items()},
                                 view, pk, [])
    assert all(type(c) is Fraction for c in remainder.values())
    return remainder


def fraction_engine(run):
    """``run()`` with the engine on ``Fraction`` coefficients only: packed
    terms keep their ``Fraction`` and ``_reduce`` is the oracle."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "as_int", lambda c: c)
        mp.setattr(groebner, "_reduce", fraction_reduce)
        return run()


def all_fractions(polys):
    return all(type(c) is Fraction for g in polys for c in g.terms.values())


@st.composite
def scaled_polys(draw):
    """A polynomial over x, y, z scaled so that its lead coefficient under
    grevlex is an integer other than 1, a non-integral rational, or 1."""
    g = draw(xyz_polys(max_terms=3))
    if g.is_zero():
        return g
    lc = leading(g, grevlex())[1]
    return g * (draw(st.sampled_from(
        [Fraction(1), Fraction(2), Fraction(-3), Fraction(3, 2),
         Fraction(-1, 3)])) / lc)


@st.composite
def integral_path_problems(draw):
    polys = [g for g in draw(st.lists(scaled_polys(), min_size=1, max_size=3))
             if not g.is_zero()]
    order = draw(st.sampled_from(
        [lex(), grevlex(), elimination(1), elimination(2)]))
    return draw(scaled_polys()), polys, order


@settings(derandomize=True, max_examples=150, deadline=None)
@given(integral_path_problems())
def test_integral_coefficients_match_the_fraction_engine(problem):
    dividend, polys, order = problem
    nf = normal_form(dividend, polys, order)
    assert all_fractions([nf])
    assert same_with_term_order(
        [nf], [fraction_engine(lambda: normal_form(dividend, polys, order))])
    reduced = autoreduce(polys, order)
    assert all_fractions(reduced)
    assert same_with_term_order(
        reduced, fraction_engine(lambda: autoreduce(polys, order)))
    system = PolySystem(XYZ, tuple(polys), order)

    def run():
        try:
            gb = buchberger(system, Limits(max_pairs=100))
        except ResourceLimitExceeded as exc:
            return exc.partial, exc.stats
        return list(gb.basis), gb.stats
    basis, stats = run()
    assert all_fractions(basis)
    expected_basis, expected_stats = fraction_engine(run)
    assert same_with_term_order(basis, expected_basis)
    assert stats == expected_stats


def test_a_non_monic_division_leaves_a_fraction():
    nf = normal_form(p("x"), [p("2*x - 1")], lex())
    assert nf.terms == {(0, 0): Fraction(1, 2)}
    assert type(nf.terms[(0, 0)]) is Fraction
    pk = groebner._packing(2, lex(), 1)
    terms = pk.terms(p("2*x - 3/2"))
    assert terms == {pk.pack((1, 0)): 2, pk.pack((0, 0)): Fraction(-3, 2)}
    assert [type(c) for c in terms.values()] == [int, Fraction]
    tail = pk.entry(pk.terms(p("2*x - 3")))[2]
    assert tail == [(pk.pack((0, 0)), Fraction(3, 2))]
