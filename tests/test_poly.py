"""Polynomial ring: exact arithmetic, orders, substitution, parsing."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rbu3.poly import (MultiPoly, ParseError, VarTable, elimination, grevlex,
                       lex, parse_poly)
from rbu3.groebner import normal_form

from reference import leading


XY = VarTable(["x", "y"])


def p(text, table=XY):
    return parse_poly(text, table)


def test_square_of_sum():
    assert p("x + y") ** 2 == p("x^2 + 2*x*y + y^2")


@pytest.mark.parametrize("k", range(7))
def test_power_is_the_repeated_product_without_a_wasted_square(k, monkeypatch):
    base = p("2*x - y + 1")
    expected = MultiPoly.const(XY, 1)
    for _ in range(k):
        expected = expected * base
    products = []
    real_mul = MultiPoly.__mul__

    def counting_mul(a, b):
        products.append(b)
        return real_mul(a, b)

    monkeypatch.setattr(MultiPoly, "__mul__", counting_mul)
    assert base ** k == expected
    # one square per bit below the top one, one product per set bit
    assert len(products) == max(k.bit_length() - 1, 0) + bin(k).count("1")


@pytest.mark.parametrize("exponent", [-1, 1.0, Fraction(2), "2"])
def test_power_refuses_negative_and_non_integer_exponents(exponent):
    with pytest.raises(ValueError):
        p("x + y") ** exponent


def test_substitute_root():
    assert p("x^2 - 1").substitute({"x": 1}).is_zero()


def test_substitute_is_ring_hom():
    f = p("x^2 - 3*x*y + y^2")
    g = p("2*x + y")
    bind = {"x": p("y + 1"), "y": p("x - 2")}
    assert (f * g).substitute(bind) == f.substitute(bind) * g.substitute(bind)
    assert (f + g).substitute(bind) == f.substitute(bind) + g.substitute(bind)


def test_substitute_unknown_variable_rejected():
    with pytest.raises(ValueError):
        p("x").substitute({"z": 1})


def test_denominator_clearing_via_normal_form():
    # s = e/k, t = h/k: clearing denominators of s*t against k*u = 1
    table = VarTable(["k", "u", "e", "h"])
    st_cleared = parse_poly("e*u * h*u", table) * parse_poly("k^3", table)
    nf = normal_form(st_cleared, [parse_poly("k*u - 1", table)], grevlex())
    assert nf == parse_poly("k*e*h", table)


def test_leading_term_lex():
    assert leading(p("x + y^2"), lex()) == ((1, 0), Fraction(1))
    assert leading(p("x*y - 1"), lex()) == ((1, 1), Fraction(1))


def test_leading_term_grevlex_degree_dominates():
    assert leading(p("x + y^2"), grevlex()) == ((0, 2), Fraction(1))


def test_leading_term_of_zero():
    with pytest.raises(ValueError, match="no leading term"):
        leading(MultiPoly(XY, {}), lex())


def test_is_zero_identically():
    assert ((p("x") + 1) * (p("x") - 1) - p("x^2") + 1).is_zero()
    table = VarTable(["kappa", "x"])
    k, x = table.var("kappa"), table.var("x")
    assert (k * x - x * k).is_zero()
    assert not p("x - y").is_zero()


def test_elimination_order_blocks_dominate():
    order = elimination(1)
    # any power of x beats any monomial without x
    assert order.key((1, 0)) > order.key((0, 5))
    assert order.key((2, 0)) > order.key((1, 3))


def test_print_parse_round_trip_examples():
    for text in ("x^2 - 2*x*y + y^2", "-1/3*x + 5", "x*y", "0", "7"):
        q = p(text)
        assert parse_poly(q.to_str(), XY) == q


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        p("x +")
    with pytest.raises(ParseError):
        p("2 ** x")
    with pytest.raises(ParseError):
        p("z + 1")


def test_juxtaposed_terms_are_rejected():
    # a term after the first must follow '+' or '-'
    for text in ("2 3", "x y", "x^2 y", "x + 2 y"):
        with pytest.raises(ParseError, match="'[+]' or '-'"):
            p(text)
    assert p("x - -y") == p("x + y")


coeffs = st.builds(Fraction, st.integers(-8, 8), st.integers(1, 6))


@st.composite
def polys(draw, table=XY, max_terms=4, max_exp=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        mono = tuple(draw(st.integers(0, max_exp)) for _ in table.names)
        terms[mono] = draw(coeffs)
    return MultiPoly(table, terms)


@settings(derandomize=True, max_examples=60)
@given(polys(), polys(), polys())
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + MultiPoly(XY, {}) == a
    assert a * MultiPoly.const(XY, 1) == a


@settings(derandomize=True, max_examples=60)
@given(polys().filter(bool), polys().filter(bool))
def test_leading_term_multiplicative(a, b):
    for order in (lex(), grevlex()):
        ma, ca = leading(a, order)
        mb, cb = leading(b, order)
        mono, coeff = leading(a * b, order)
        assert mono == tuple(x + y for x, y in zip(ma, mb))
        assert coeff == ca * cb


@settings(derandomize=True, max_examples=40)
@given(polys(), polys())
def test_substitute_distributes(a, b):
    bind = {"x": p("2*y - 1"), "y": p("x + 3")}
    assert (a + b).substitute(bind) == a.substitute(bind) + b.substitute(bind)
    assert (a * b).substitute(bind) == a.substitute(bind) * b.substitute(bind)


# -- substitution against the reference loop ----------------------------------


def reference_substitute(poly, bindings, table=None):
    """Substitution as a product of powers per term: every variable becomes a
    polynomial over the target table and each term is multiplied out."""
    for name in bindings:
        if name not in poly.table.index:
            raise ValueError(f"unknown variable {name!r} in bindings")
    target = table if table is not None else poly.table
    repl = {}
    for name, value in bindings.items():
        if isinstance(value, MultiPoly):
            if value.table != target:
                raise ValueError(
                    f"binding for {name!r} is not over the target table")
            repl[name] = value
        else:
            repl[name] = MultiPoly.const(target, value)
    result = MultiPoly(target, {})
    for mono, coeff in poly.terms.items():
        term = MultiPoly.const(target, coeff)
        for i, e in enumerate(mono):
            if not e:
                continue
            name = poly.table.names[i]
            value = repl.get(name)
            if value is None:
                if name not in target.index:
                    raise ValueError(
                        f"variable {name!r} missing from the target table")
                value = target.var(name)
            term = term * value**e
        result = result + term
    return result


XYZ = VarTable(["x", "y", "z"])
# what happens to each variable: kept (in the target table), bound to a
# scalar, bound to a polynomial over the target table, or dropped (unbound
# and missing from the target table)
MODES = ("keep", "scalar", "poly", "drop")


def outcome(call):
    """The result with its term order, or the error message."""
    try:
        result = call()
    except ValueError as exc:
        return "error", str(exc)
    return result.table, list(result.terms.items())


@st.composite
def substitutions(draw):
    source = draw(polys(XYZ, max_terms=5))
    modes = {name: draw(st.sampled_from(MODES)) for name in XYZ.names}
    names = [n for n in XYZ.names if modes[n] == "keep"]
    names += draw(st.lists(st.sampled_from(["w", "v"]), unique=True))
    target = VarTable(draw(st.permutations(names)))
    bindings = {}
    for name, mode in modes.items():
        if mode == "scalar":
            bindings[name] = draw(st.one_of(st.sampled_from([0, -1, -2]), coeffs))
        elif mode == "poly":
            bindings[name] = draw(polys(target, max_terms=3, max_exp=2))
    use_table = target != XYZ or draw(st.booleans())
    return source, bindings, target if use_table else None


@settings(derandomize=True, max_examples=300)
@given(substitutions())
def test_substitute_matches_reference_loop(case):
    source, bindings, table = case
    got = outcome(lambda: source.substitute(bindings, table))
    assert got == outcome(lambda: reference_substitute(source, bindings, table))
    if not bindings and table is not None:
        assert outcome(lambda: source.retable(table)) == got


@settings(derandomize=True, max_examples=100)
@given(polys(XYZ, max_terms=5), st.permutations(XYZ.names),
       st.lists(st.sampled_from(["w", "v", "u"]), unique=True))
def test_retable_to_permuted_and_wider_tables(source, names, extra):
    for table in (VarTable(names), VarTable(list(names) + extra),
                  VarTable(extra + list(names))):
        moved = source.retable(table)
        assert outcome(lambda: moved) == outcome(
            lambda: reference_substitute(source, {}, table))
        assert moved.retable(XYZ) == source


def test_substitute_error_messages():
    with pytest.raises(ValueError, match="unknown variable 'w' in bindings"):
        p("x + y").substitute({"w": 1})
    with pytest.raises(ValueError, match="variable 'y' missing from the target"):
        p("x*y + 1").substitute({"x": 2}, VarTable(["x"]))
    with pytest.raises(ValueError, match="variable 'y' missing from the target"):
        p("x + y").retable(VarTable(["x"]))
    with pytest.raises(ValueError, match="not over the target table"):
        p("x").substitute({"x": p("y")}, VarTable(["y", "x"]))
    # a variable that does not occur need not be in the target table
    assert p("2*x").retable(VarTable(["x"])) == VarTable(["x"]).parse("2*x")


def test_write_json_format_and_standard_output(tmp_path, capsys):
    from rbu3.poly import read_json, write_json
    path = tmp_path / "data.json"
    write_json(path, {"b": [1, 2], "a": "x"})
    text = '{\n  "a": "x",\n  "b": [\n    1,\n    2\n  ]\n}\n'
    assert path.read_text() == text
    write_json("-", {"b": [1, 2], "a": "x"})
    assert capsys.readouterr().out == text
    assert read_json(path, "a", "b") == {"a": "x", "b": [1, 2]}
    with pytest.raises(ValueError, match="'c'"):
        read_json(path, "a", "c")
    path.write_text("[1, 2]\n")
    with pytest.raises(ValueError, match="not a JSON object"):
        read_json(path)


def test_parse_poly_drops_zero_and_cancelled_terms():
    assert p("0*x + y").terms == {(0, 1): 1}
    assert p("x + y - x").terms == {(0, 1): 1}
