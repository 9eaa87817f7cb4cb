"""Reference helpers shared by the tests: plain versions of what the
engine computes another way."""

from fractions import Fraction
from typing import Sequence

from rbu3.matrices import UTMatrix, basis_indices, name_to_index, parse_matrix
from rbu3.operators import Ansatz, Operator, bvar_name


def identity(n=3):
    """The identity map of U_n as an operator of weight zero."""
    return Operator(n, {idx: UTMatrix.basis(n, *idx) for idx in basis_indices(n)})


def symbolic_operator(shape, weight):
    """The symbolic operator of a solved ansatz ``shape`` (an
    ``AnsatzSolution``), of the given weight: the e_kl entry of R(e_ij) is
    the expression of b_ij_kl over the free unknowns."""
    idxs = basis_indices(shape.n)
    return Operator(shape.n, {src: UTMatrix(shape.n, {
        dst: shape.expressions[bvar_name(src, dst)] for dst in idxs})
        for src in idxs}, weight)


def leading(p, order):
    """The maximal (monomial, coefficient) pair of ``p`` under ``order``.

    Raises ``ValueError("no leading term")`` on the zero polynomial.
    """
    if not p.terms:
        raise ValueError("no leading term")
    mono = max(p.terms, key=order.key)
    return mono, p.terms[mono]


def degree(pk, word, bound):
    """Total degree of a word of the packing ``pk`` whose degree is at most
    ``bound``.  Below the field limit no prefix sum of the fields carries,
    so the word times ``pk.ones`` holds the sum in its top field."""
    if bound > pk.field:
        return sum(pk.unpack(word))
    return (word * pk.ones >> pk.top) & pk.field


def divides(pk, a, b):
    """Whether monomial ``a`` divides ``b`` (packed by ``pk``, or words)."""
    g = pk.guards
    return ((b | g) - (a & pk.low)) & g == g


def psi_columns(a, b, c, d, e, dinv, one):
    """psi's columns, the images of e11, e12, e13, e22, e23, e33, as the
    table in ``build_psi``'s docstring, with ``dinv`` standing for 1/delta:
    over any ring in which ``dinv`` is delta's inverse."""
    m = lambda entries: UTMatrix._filtered(3, entries)
    return {
        (1, 1): m({(1, 1): one, (1, 2): b, (1, 3): c}),
        (1, 2): m({(1, 2): d, (1, 3): e}),
        (1, 3): m({(1, 3): a}),
        (2, 2): m({(1, 2): -b, (1, 3): -(b * e * dinv), (2, 2): one,
                   (2, 3): e * dinv}),
        (2, 3): m({(1, 3): -(a * b * dinv), (2, 3): a * dinv}),
        (3, 3): m({(1, 3): b * e * dinv - c, (2, 3): -(e * dinv), (3, 3): one}),
    }


class ShapeAnsatz(Ansatz):
    """An ``Ansatz`` with constructors for the usual shapes: fixing a whole
    image, fixing R(1), or restricting an image to a span of basis elements."""

    def fix_image(self, name: str, matrix_text: str) -> "Ansatz":
        """Constrain R(e_name) to the given rational matrix."""
        idx = name_to_index(name, self.n)
        target = parse_matrix(matrix_text, self.n)
        for dst in basis_indices(self.n):
            value = target.entries.get(dst, Fraction(0))
            self.constraints.append(f"{bvar_name(idx, dst)} - {value}"
                                    if value else bvar_name(idx, dst))
        return self

    def fix_unit_image(self, matrix_text: str) -> "Ansatz":
        """Constrain R(1) = R(e11) + ... + R(enn) to the given matrix."""
        target = parse_matrix(matrix_text, self.n)
        for dst in basis_indices(self.n):
            terms = " + ".join(bvar_name((i, i), dst) for i in range(1, self.n + 1))
            value = target.entries.get(dst, Fraction(0))
            self.constraints.append(f"{terms} - {value}" if value else terms)
        return self

    def restrict_span(self, name: str, allowed: Sequence[str]) -> "Ansatz":
        """Force R(e_name) into the span of the listed basis elements."""
        idx = name_to_index(name, self.n)
        allowed_idx = {name_to_index(a, self.n) for a in allowed}
        for dst in basis_indices(self.n):
            if dst not in allowed_idx:
                self.constraints.append(bvar_name(idx, dst))
        return self


def _cross(lefts, rights):
    return tuple((l, r) for l in lefts for r in rights)


def _unit_image(text):
    return ShapeAnsatz(3).fix_unit_image(text)


def _sec5_reduced():
    ansatz = (_unit_image("e12").fix_image("e12", "0")
              .restrict_span("e22", ["e12", "e13"])
              .restrict_span("e33", ["e12", "e13"])
              .restrict_span("e13", ["e12"]))
    return ansatz.constraints + ["b_13_12 - b_23_22 + b_23_11", "b_23_23"]


def preset_shapes():
    """Each case preset's (constraints, relations) as derived from the
    ansatz its section describes: R(1) fixed, images fixed, spans restricted
    and the stated linear reductions, then the quoted relations, most of them
    products of a case letter from each of two lists."""
    sec41 = _unit_image("0")
    for name in ("e11", "e12", "e13", "e22", "e23", "e33"):
        sec41.restrict_span(name, ["e12", "e13", "e23"])
    sec5_quads = _cross(("f", "j"), ("b", "d", "g"))
    # 2 (R(e12) + R(e23)) = e13, coordinate by coordinate
    unit_square = tuple(
        (f"2*{bvar_name((1, 2), dst)} + 2*{bvar_name((2, 3), dst)}"
         + (" - 1" if dst == (1, 3) else ""),) for dst in basis_indices(3))
    # the linear relation in its flip-symmetric orientation (the printed one
    # has the opposite sign and does not vanish on the solution set)
    headline = (("b_11_12 + b_33_23 - 1",), ("b_33_23^2 - b_33_23",))
    sec7 = _unit_image("e12 + e23").constraints
    shapes = {
        "sec4.1": (sec41.constraints,
                   tuple((v,) for v in ("b_13_12", "b_13_13", "b_13_23",
                                        "b_12_12", "b_23_23"))
                   + _cross(("c", "e", "h"), ("a",))
                   + _cross(("c", "d", "e", "h"), ("b", "g", "j"))),
        "sec4.2": (_unit_image("0").fix_image("e11", "0").constraints + [
            "b_12_22", "b_12_33", "b_12_12 + b_33_11",
            "b_13_22", "b_13_33", "b_13_13 - b_33_11", "b_13_12 - b_23_11",
            "b_23_22", "b_23_23", "b_23_33",
            "b_33_22", "b_33_33"],
            _cross(("d", "g", "l"), ("a", "b", "h", "i", "j", "k"))),
        "sec4.3": (_unit_image("0").fix_image("e22", "0").constraints + [
            "b_12_11", "b_12_12", "b_12_33",
            "b_13_11", "b_13_13", "b_13_22", "b_13_33",
            "b_23_11", "b_23_23", "b_23_33",
            "b_33_11", "b_33_22", "b_33_33"],
            _cross(("a", "h", "i", "k"), ("c", "d", "e", "f", "l"))),
        "sec5": (_unit_image("e12").constraints,
                 tuple((bvar_name((1, 2), dst),) for dst in basis_indices(3))
                 + tuple((v,) for v in (
                     "b_22_11", "b_22_22", "b_22_23", "b_22_33",
                     "b_33_11", "b_33_22", "b_33_23", "b_33_33",
                     "b_13_11", "b_13_13", "b_13_22", "b_13_23", "b_13_33",
                     "b_13_12 - b_23_22 + b_23_11", "b_23_23"))
                 + sec5_quads),
        "sec5-reduced": (_sec5_reduced(), sec5_quads),
        "sec5-sub2.1": (_sec5_reduced() + ["b_23_11", "b_23_33"],
                        tuple((letter,) for letter in ("a", "b", "d", "g", "h"))),
        "sec6": (_unit_image("e13").fix_image("e13", "0").constraints + [
            "b_22_33 - b_22_11",
            "b_33_33 - b_33_11",
            "b_12_33 - b_12_11",
            "b_23_33 - b_23_11",
            "b_12_12 - b_22_11 + b_22_22 - b_33_11 + b_33_22",
            "b_23_23 - b_33_22 + b_33_11"],
            _cross(("f", "i", "g", "k", "l", "n"),
                   ("a + f", "d + i", "e + j", "p", "r", "s", "t"))),
        "sec7": (sec7, unit_square + headline),
        "sec7-reduced": (sec7 + [claim for (claim,) in unit_square], headline),
    }
    return {name: (tuple(constraints), relations)
            for name, (constraints, relations) in shapes.items()}
