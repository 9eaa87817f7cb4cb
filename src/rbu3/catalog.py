"""The weight-zero classification data for U_3 and its certification.

Forty families R1..R40 are shipped as parametric operators exactly as
displayed in the classification table; ``build_catalog`` certifies each one
by computing its residual identically in the parameters.  The case driver
replays the computational core: it regenerates the polynomial system of a
case ansatz, computes a Groebner basis, certifies the quoted quadratic
relations as ideal members, and substitutes the claimed solution families
back into the unsimplified system.

Two shipped entries carry known defects of the source table, kept verbatim
for transparency (see the README):

* R9's display assigns R(e22) twice; the entry here uses the form the case
  derivation produces (R(e33) = e13), which certifies.
* R13 as displayed fails the defining identity: its first nonzero residual
  cell is at the basis pair (e11, e11) with value -e12, and its image
  dimension is 3.  It is shipped as displayed, and certification reports it
  (``build_catalog(strict=True)`` raises on it).
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Mapping, Sequence

from .matrices import UTMatrix, basis_indices, basis_name
from .operators import (Ansatz, Operator, bvar_name, check_lemma3, failure_json,
                        generate_system, rb_residual)
from .poly import add_terms, write_json
from .groebner import (GroebnerBasis, Limits, ResourceLimitExceeded,
                       autoreduce, buchberger)
from .transform import closure_trial

__all__ = [
    "CatalogEntry",
    "CatalogError",
    "CaseSpec",
    "CaseSolution",
    "CaseReport",
    "build_catalog",
    "catalog_ids",
    "get_entry",
    "case_preset",
    "case_preset_names",
    "run_case",
    "unit_square_certificate",
    "verify_all",
    "export_data",
]

KAPPA_SIDE = "kappa != -1"

# id -> (params, side conditions, provenance, images)
_CATALOG_DEFS = {
    "R1": (("c11_12", "c11_13", "c22_12", "c22_13", "c33_12", "c33_13",
            "c23_12", "c23_13"), (), "sec2-example; sec4.1",
           {"e11": "c11_12*e12 + c11_13*e13",
            "e22": "c22_12*e12 + c22_13*e13",
            "e33": "c33_12*e12 + c33_13*e13",
            "e23": "c23_12*e12 + c23_13*e13"}),
    "R2": (("c11_13", "c12_13", "c22_13", "c23_13", "c33_13"), (),
           "sec2-example; sec4.1",
           {"e11": "c11_13*e13", "e12": "c12_13*e13", "e22": "c22_13*e13",
            "e23": "c23_13*e13", "e33": "c33_13*e13"}),
    "R3": ((), (), "sec4.2", {"e12": "-e11", "e13": "e23"}),
    "R4": ((), (), "sec4.2", {"e12": "e11", "e22": "-e23", "e33": "e23"}),
    "R5": ((), (), "sec4.2", {"e12": "e11"}),
    "R6": ((), (), "sec4.2", {"e13": "e11"}),
    "R7": ((), (), "sec4.3", {"e13": "e12", "e23": "e22"}),
    "R8": ((), (), "sec4.3", {"e23": "e22"}),
    "R9": ((), (), "sec4.3", {"e11": "-e13", "e33": "e13", "e23": "e22"}),
    "R10": ((), (), "sec4.4", {"e13": "e11 + e22"}),
    "R11": ((), (), "sec4.4", {"e23": "e11 + e22"}),
    "R12": ((), (), "sec4.4",
            {"e23": "e11 + e22", "e11": "e12", "e22": "-e12"}),
    "R13": ((), (), "sec4.4",
            {"e13": "e12", "e23": "e11 + e22", "e11": "e13", "e22": "-e13"}),
    "R14": ((), (), "sec4.4", {"e13": "e12", "e23": "e11 + e22"}),
    "R15": ((), (), "sec4.5", {"e13": "-e23", "e12": "e11 + e33"}),
    "R16": ((), (), "sec4.5",
            {"e13": "-e23", "e12": "e11 + e33", "e11": "-e23", "e33": "e23"}),
    "R17": ((), (), "sec4.5", {"e12": "e11 + e33"}),
    "R18": ((), (), "sec4.5",
            {"e12": "e11 + e33", "e11": "-e13", "e33": "e13"}),
    "R19": ((), (), "sec4.6", {"e12": "e22", "e13": "e11 + e22"}),
    "R20": ((), (), "sec4.6", {"e12": "e11", "e23": "e11 + e22"}),
    "R21": ((), (), "sec4.6", {"e13": "e11", "e23": "e22"}),
    "R22": ((), (), "sec4.7", {"e12": "e11 + e33", "e13": "e33"}),
    "R23": ((), (), "sec4.7", {"e12": "e11", "e23": "e33"}),
    "R24": ((), (), "sec4.7", {"e13": "e11", "e23": "e11 + e33"}),
    "R25": ((), (), "sec5", {"e11": "e12", "e23": "e11 + e22"}),
    "R26": (("kappa",), (KAPPA_SIDE,), "sec5",
            {"e11": "kappa*e12", "e22": "e12", "e23": "e11 + e22"}),
    "R27": ((), (), "sec5", {"e11": "e12", "e23": "e33"}),
    "R28": (("kappa",), (KAPPA_SIDE,), "sec5",
            {"e11": "kappa*e12", "e22": "e12", "e23": "e33"}),
    "R29": ((), (), "sec5",
            {"e33": "e12", "e13": "-e12", "e23": "e11 + e33"}),
    "R30": ((), (), "sec5",
            {"e11": "e12", "e33": "e12", "e13": "e12", "e23": "e22"}),
    "R31": (("kappa",), (KAPPA_SIDE,), "sec6",
            {"e11": "e13", "e33": "kappa*e13", "e23": "e11 + e33"}),
    "R32": (("kappa",), (KAPPA_SIDE,), "sec6",
            {"e11": "kappa*e13", "e33": "e13", "e23": "e11 + e33"}),
    "R33": ((), (), "sec6", {"e11": "e13", "e23": "e22"}),
    "R34": (("kappa",), (KAPPA_SIDE,), "sec6",
            {"e11": "kappa*e13", "e23": "e22", "e33": "e13"}),
    "R35": (("kappa",), (KAPPA_SIDE,), "sec6",
            {"e11": "kappa*e13", "e33": "e13", "e23": "e22"}),
    "R36": (("kappa",), (KAPPA_SIDE,), "sec6",
            {"e11": "e13", "e33": "kappa*e13", "e12": "e22"}),
    "R37": (("kappa",), (KAPPA_SIDE,), "sec6",
            {"e11": "kappa*e13", "e33": "e13", "e12": "e22"}),
    "R38": (("kappa",), (KAPPA_SIDE,), "sec6",
            {"e11": "e13", "e33": "kappa*e13", "e12": "e11 + e33"}),
    "R39": (("kappa",), (KAPPA_SIDE,), "sec6",
            {"e11": "kappa*e13", "e33": "e13", "e12": "e11 + e33"}),
    "R40": (("b", "f"), ("b, f free",), "sec7",
            {"e12": "e13", "e11": "e12 + b*e13 + e23",
             "e22": "f*e13 + e23", "e33": "-b*e13 - f*e13"}),
}

# The families with R^2 != 0, in catalog order.  The source's quoted list is
# {R13, R29, R31, R32, R38, R39, R40}; it omits R25 and R26, which certify and
# whose squares are nonzero: R25^2(e23) = R25(e11 + e22) = e12, and
# R26^2(e23) = (kappa + 1) e12, nonzero under the side condition kappa != -1.
# R13 is here as displayed (R13^2(e11) = e12), although it fails the identity.
EXPECTED_R2_NONZERO = ("R13", "R25", "R26", "R29", "R31", "R32", "R38",
                       "R39", "R40")


class CatalogError(RuntimeError):
    def __init__(self, failures):
        self.failures = failures
        detail = "; ".join(
            f"{eid}: residual {value} at pair ({basis_name(p[0])},{basis_name(p[1])}) "
            f"position {basis_name(pos)}" for eid, (p, pos, value) in failures)
        super().__init__(f"catalog certification failed: {detail}")


@dataclass
class CatalogEntry:
    id: str
    params: tuple
    side_conditions: tuple
    provenance: str
    operator: Operator
    residual_zero: bool = False
    first_failure: object = None

    def specialize(self, values: Mapping[str, Fraction] | None = None,
                   rng: random.Random | None = None) -> Operator:
        """A rational instance of the family (random values when unspecified)."""
        if not self.params:
            return self.operator
        if values is None:
            rng = rng or random.Random(0)
            values = {name: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                      for name in self.params}
        return self.operator.substitute_params(values)

    def to_json(self) -> dict:
        data = self.operator.to_json()
        data.update({"id": self.id, "provenance": self.provenance,
                     "side_conditions": list(self.side_conditions)})
        return data


def catalog_ids() -> list:
    return list(_CATALOG_DEFS)


def build_catalog(strict: bool = True) -> list:
    """All forty families, each certified by its symbolic residual.

    With ``strict=True`` (the module contract) any identically-nonzero
    residual aborts the build with :class:`CatalogError`.  The reporting
    paths use ``strict=False`` and read the per-entry certification flags.
    """
    entries = [_build_entry(eid) for eid in _CATALOG_DEFS]
    failures = [(e.id, e.first_failure) for e in entries if not e.residual_zero]
    if strict and failures:
        raise CatalogError(failures)
    return entries


def _build_entry(eid: str) -> CatalogEntry:
    """One family, with its symbolic residual's verdict recorded."""
    params, side, prov, images = _CATALOG_DEFS[eid]
    op = Operator.from_images(images, n=3, params=params)
    entry = CatalogEntry(eid, tuple(params), tuple(side), prov, op)
    residual = rb_residual(op)
    entry.residual_zero = residual.is_zero()
    if not entry.residual_zero:
        entry.first_failure = residual.first_nonzero()
    return entry


def get_entry(eid: str) -> CatalogEntry:
    """The family ``eid``, built and certified on its own."""
    if eid not in _CATALOG_DEFS:
        raise KeyError(f"unknown family id {eid!r}")
    return _build_entry(eid)


# -- case driver ---------------------------------------------------------------


@dataclass
class CaseSolution:
    name: str
    params: tuple
    images: dict           # basis name -> matrix literal over the params
    resolves_to: tuple

    def operator(self, weight=Fraction(0)) -> Operator:
        return Operator.from_images(self.images, 3, self.params, weight)


@dataclass
class CaseSpec:
    name: str
    title: str
    constraints: tuple     # linear constraint strings over the b-variables
    aliases: dict          # case letter -> b-variable name
    relations: tuple       # each a tuple of factor strings; the claim is their product
    solutions: tuple
    localize: str | None = None   # case letter forced invertible
    notes: str = ""

    def ansatz(self) -> Ansatz:
        return Ansatz(3, Fraction(0), list(self.constraints))

    def to_json(self) -> dict:
        return {"schema": 1, **asdict(self)}


def _cross(lefts, rights):
    return tuple((l, r) for l in lefts for r in rights)


def _sec41() -> CaseSpec:
    ansatz = Ansatz(3).fix_unit_image("0")
    for name in ("e11", "e12", "e13", "e22", "e23", "e33"):
        ansatz.restrict_span(name, ["e12", "e13", "e23"])
    aliases = {"a": "b_12_13", "b": "b_12_23", "c": "b_23_12", "d": "b_23_13",
               "e": "b_22_12", "f": "b_22_13", "g": "b_22_23",
               "h": "b_33_12", "i": "b_33_13", "j": "b_33_23"}
    relations = tuple((v,) for v in
                      ("b_13_12", "b_13_13", "b_13_23", "b_12_12", "b_23_23"))
    relations += _cross(("c", "e", "h"), ("a",))
    relations += _cross(("c", "d", "e", "h"), ("b", "g", "j"))
    solutions = (
        CaseSolution("im-in-L(e12,e13)", ("c", "d", "e", "f", "h", "i"),
                     {"e22": "e*e12 + f*e13", "e23": "c*e12 + d*e13",
                      "e33": "h*e12 + i*e13",
                      "e11": "-e*e12 - h*e12 - f*e13 - i*e13"},
                     ("R1",)),
        CaseSolution("im-in-L(e13)", ("a", "d", "f", "i"),
                     {"e12": "a*e13", "e23": "d*e13", "e22": "f*e13",
                      "e33": "i*e13", "e11": "-f*e13 - i*e13"},
                     ("R2",)),
        CaseSolution("im-in-L(e13,e23)", ("a", "b", "f", "g", "i", "j"),
                     {"e12": "a*e13 + b*e23", "e22": "f*e13 + g*e23",
                      "e33": "i*e13 + j*e23",
                      "e11": "-f*e13 - i*e13 - g*e23 - j*e23"},
                     ("R1",)),
    )
    return CaseSpec("sec4.1", "R(1) = 0, image nilpotent (15 unknowns)",
                    tuple(ansatz.constraints), aliases, relations, solutions)


def _sec42() -> CaseSpec:
    constraints = Ansatz(3).fix_unit_image("0").fix_image("e11", "0").constraints
    constraints += [
        "b_12_22", "b_12_33", "b_12_12 + b_33_11",
        "b_13_22", "b_13_33", "b_13_13 - b_33_11", "b_13_12 - b_23_11",
        "b_23_22", "b_23_23", "b_23_33",
        "b_33_22", "b_33_33",
    ]
    aliases = {"a": "b_33_11", "b": "b_33_12", "c": "b_33_13", "d": "b_33_23",
               "e": "b_12_11", "f": "b_12_13", "g": "b_12_23",
               "h": "b_13_12", "i": "b_23_12", "j": "b_23_13",
               "k": "b_13_11", "l": "b_13_23"}
    relations = _cross(("d", "g", "l"), ("a", "b", "h", "i", "j", "k"))
    solutions = (
        CaseSolution("opposite-corner-branch", ("e", "g"),
                     {"e12": "e*e11 + g*e23", "e13": "-e*e23"},
                     ("R3",)),
        CaseSolution("split-diagonal-branch", ("e", "f", "d"),
                     {"e12": "e*e11 + f*e13", "e33": "d*e23",
                      "e22": "-d*e23"},
                     ("R4",)),
        CaseSolution("single-corner-branch", ("e", "f"),
                     {"e12": "e*e11 + f*e13"},
                     ("R5",)),
        CaseSolution("rank-one-row-branch", ("s", "t"),
                     {"e12": "s*e11 + s*t*e12 - s^2*t*e13",
                      "e13": "e11 + t*e12 - s*t*e13",
                      "e23": "t*e11 + t^2*e12 - s*t^2*e13",
                      "e33": "-s*t*e11 - s*t^2*e12 + s^2*t^2*e13",
                      "e22": "s*t*e11 + s*t^2*e12 - s^2*t^2*e13"},
                     ("R6",)),
    )
    return CaseSpec("sec4.2", "R(1) = 0, semisimple part spanned by e11 "
                              "(12 unknowns)",
                    tuple(constraints), aliases, relations, solutions)


def _sec43() -> CaseSpec:
    constraints = Ansatz(3).fix_unit_image("0").fix_image("e22", "0").constraints
    constraints += [
        "b_12_11", "b_12_12", "b_12_33",
        "b_13_11", "b_13_13", "b_13_22", "b_13_33",
        "b_23_11", "b_23_23", "b_23_33",
        "b_33_11", "b_33_22", "b_33_33",
    ]
    aliases = {"a": "b_33_12", "b": "b_33_13", "c": "b_33_23",
               "d": "b_12_13", "e": "b_12_22", "f": "b_12_23",
               "h": "b_23_22", "i": "b_23_12", "j": "b_23_13",
               "k": "b_13_12", "l": "b_13_23"}
    relations = _cross(("a", "h", "i", "k"), ("c", "d", "e", "f", "l"))
    solutions = (
        CaseSolution("matched-pair-branch", ("a", "k"),
                     {"e13": "k*e12", "e23": "k*e22",
                      "e11": "-a*e12", "e33": "a*e12"},
                     ("R7",)),
        CaseSolution("middle-image-branch", ("b", "i", "h"),
                     {"e23": "i*e12 + h*e22",
                      "e11": "-b*e13", "e33": "b*e13"},
                     ("R8", "R9")),
    )
    return CaseSpec("sec4.3", "R(1) = 0, semisimple part spanned by e22 "
                              "(11 unknowns)",
                    tuple(constraints), aliases, relations, solutions)


_SEC5_ALIASES = {"a": "b_22_12", "b": "b_22_13", "c": "b_33_12", "d": "b_33_13",
                 "f": "b_23_11", "g": "b_23_12", "h": "b_23_13",
                 "i": "b_23_22", "j": "b_23_33"}

_SEC5_SOLUTIONS = (
    CaseSolution("j-zero-branch", ("a", "f", "h"),
                 {"e11": "e12 - a*e12", "e22": "a*e12",
                  "e23": "f*e11 + h*e13 + f*e22"},
                 ("R25", "R26")),
    CaseSolution("f-zero-branch", ("a", "h", "j"),
                 {"e11": "e12 - a*e12", "e22": "a*e12",
                  "e23": "h*e13 + j*e33"},
                 ("R27", "R28")),
    CaseSolution("f-equals-j-branch", ("c", "f"),
                 {"e11": "e12 - c*e12", "e33": "c*e12", "e13": "-f*e12",
                  "e23": "f*e11 + f*e33"},
                 ("R29",)),
    CaseSolution("i-invertible-branch", ("c", "i"),
                 {"e11": "e12 - c*e12", "e33": "c*e12", "e13": "i*e12",
                  "e23": "i*e22"},
                 ("R30",)),
    CaseSolution("im-in-L(e12,e13)", ("a", "b", "c", "d", "g", "h"),
                 {"e11": "e12 - a*e12 - c*e12 - b*e13 - d*e13",
                  "e22": "a*e12 + b*e13", "e33": "c*e12 + d*e13",
                  "e23": "g*e12 + h*e13"},
                 ("R1",)),
)

_SEC5_QUADS = _cross(("f", "j"), ("b", "d", "g"))


def _sec5() -> CaseSpec:
    constraints = Ansatz(3).fix_unit_image("e12").constraints
    relations = tuple((bvar_name((1, 2), dst),) for dst in basis_indices(3))
    relations += tuple((v,) for v in
                       ("b_22_11", "b_22_22", "b_22_23", "b_22_33",
                        "b_33_11", "b_33_22", "b_33_23", "b_33_33",
                        "b_13_11", "b_13_13", "b_13_22", "b_13_23", "b_13_33",
                        "b_13_12 - b_23_22 + b_23_11", "b_23_23"))
    relations += _SEC5_QUADS
    return CaseSpec("sec5", "R(1) = e12 (full 30-unknown system)",
                    tuple(constraints), _SEC5_ALIASES, relations,
                    _SEC5_SOLUTIONS)


def _sec5_reduced_constraints() -> list:
    ansatz = (Ansatz(3).fix_unit_image("e12").fix_image("e12", "0")
              .restrict_span("e22", ["e12", "e13"])
              .restrict_span("e33", ["e12", "e13"])
              .restrict_span("e13", ["e12"]))
    return ansatz.constraints + ["b_13_12 - b_23_22 + b_23_11", "b_23_23"]


def _sec5_reduced() -> CaseSpec:
    return CaseSpec("sec5-reduced",
                    "R(1) = e12 after the stated linear reductions (9 unknowns)",
                    tuple(_sec5_reduced_constraints()), _SEC5_ALIASES,
                    _SEC5_QUADS, _SEC5_SOLUTIONS)


def _sec5_sub21() -> CaseSpec:
    constraints = _sec5_reduced_constraints() + ["b_23_11", "b_23_33"]
    relations = tuple((letter,) for letter in ("a", "b", "d", "g", "h"))
    return CaseSpec("sec5-sub2.1",
                    "R(1) = e12, f = j = 0, with i forced invertible",
                    tuple(constraints), _SEC5_ALIASES, relations,
                    (_SEC5_SOLUTIONS[3],), localize="i")


_SEC6_ALIASES = {"a": "b_22_11", "b": "b_22_12", "c": "b_22_13",
                 "d": "b_22_22", "e": "b_22_23", "f": "b_33_11",
                 "g": "b_33_12", "h": "b_33_13", "i": "b_33_22",
                 "j": "b_33_23", "p": "b_12_11", "r": "b_12_13",
                 "s": "b_12_22", "t": "b_12_23", "k": "b_23_11",
                 "l": "b_23_12", "m": "b_23_13", "n": "b_23_22"}


def _sec6() -> CaseSpec:
    constraints = Ansatz(3).fix_unit_image("e13").fix_image("e13", "0").constraints
    constraints += [
        "b_22_33 - b_22_11",
        "b_33_33 - b_33_11",
        "b_12_33 - b_12_11",
        "b_23_33 - b_23_11",
        "b_12_12 - b_22_11 + b_22_22 - b_33_11 + b_33_22",
        "b_23_23 - b_33_22 + b_33_11",
    ]
    relations = _cross(("f", "i", "g", "k", "l", "n"),
                       ("a + f", "d + i", "e + j", "p", "r", "s", "t"))
    solutions = (
        CaseSolution("im-in-L(e12,e13)", ("b", "c", "g", "h", "l", "m"),
                     {"e22": "b*e12 + c*e13", "e33": "g*e12 + h*e13",
                      "e23": "l*e12 + m*e13",
                      "e11": "e13 - b*e12 - g*e12 - c*e13 - h*e13"},
                     ("R1",)),
        CaseSolution("im-in-L(e13)", ("c", "h", "r", "m"),
                     {"e11": "e13 - c*e13 - h*e13", "e22": "c*e13",
                      "e33": "h*e13", "e12": "r*e13", "e23": "m*e13"},
                     ("R2",)),
        CaseSolution("e22-image-branch", ("h", "l", "n"),
                     {"e11": "e13 - h*e13", "e33": "h*e13",
                      "e23": "l*e12 + n*e22"},
                     ("R33", "R34", "R35")),
        CaseSolution("im-in-L(e13,e23)", ("c", "e", "h", "j", "r", "t"),
                     {"e11": "e13 - c*e13 - h*e13 - e*e23 - j*e23",
                      "e22": "c*e13 + e*e23", "e33": "h*e13 + j*e23",
                      "e12": "r*e13 + t*e23"},
                     ("R1",)),
    )
    return CaseSpec("sec6",
                    "R(1) = e13 after the stated linear reductions (18 unknowns)",
                    tuple(constraints), _SEC6_ALIASES, relations, solutions)


_SEC7_SOLUTIONS = (
    CaseSolution("lower-branch", ("b", "f"),
                 {"e12": "1/2*e13", "e11": "e12 + b*e13 + 1/2*e23",
                  "e22": "f*e13 + 1/2*e23", "e33": "-b*e13 - f*e13"},
                 ("R40",)),
    CaseSolution("upper-branch", ("b", "f"),
                 {"e23": "1/2*e13", "e33": "e23 + b*e13 + 1/2*e12",
                  "e22": "f*e13 + 1/2*e12", "e11": "-b*e13 - f*e13"},
                 ("R40",)),
)

_SEC7_UNIT_SQUARE = (
    ("2*b_12_11 + 2*b_23_11",),
    ("2*b_12_12 + 2*b_23_12",),
    ("2*b_12_13 + 2*b_23_13 - 1",),
    ("2*b_12_22 + 2*b_23_22",),
    ("2*b_12_23 + 2*b_23_23",),
    ("2*b_12_33 + 2*b_23_33",),
)

# The source table prints the linear relation with the opposite sign
# (b_11_12 - b_33_23 + 1).  That variant cannot vanish on this case's
# solution set: the flip antiautomorphism stabilizes the case and swaps
# b_11_12 with b_33_23, and the displayed solution itself has
# b_11_12 = 1, b_33_23 = 0.  The symmetric form below is the one that
# certifies; tests/test_cases.py checks both variants explicitly.
_SEC7_HEADLINE = (
    ("b_11_12 + b_33_23 - 1",),
    ("b_33_23^2 - b_33_23",),
)

_SEC7_PRINTED_LINEAR = "b_11_12 - b_33_23 + 1"


def _sec7() -> CaseSpec:
    constraints = Ansatz(3).fix_unit_image("e12 + e23").constraints
    return CaseSpec("sec7", "R(1) = e12 + e23 (full 30-unknown system)",
                    tuple(constraints), {},
                    _SEC7_UNIT_SQUARE + _SEC7_HEADLINE, _SEC7_SOLUTIONS,
                    notes="the linear relation is certified in the "
                          "flip-symmetric orientation; the printed variant "
                          "b_11_12 - b_33_23 + 1 provably does not vanish "
                          "on the solution set")


def _sec7_reduced() -> CaseSpec:
    constraints = Ansatz(3).fix_unit_image("e12 + e23").constraints
    constraints += [r[0] for r in _SEC7_UNIT_SQUARE]
    return CaseSpec("sec7-reduced",
                    "R(1) = e12 + e23 with the unit-square reduction imposed "
                    "(24 unknowns)",
                    tuple(constraints), {}, _SEC7_HEADLINE, _SEC7_SOLUTIONS,
                    notes="the imposed linear relations are certified against "
                          "the full case by unit_square_certificate('sec7')")


_CASE_BUILDERS = {
    "sec4.1": _sec41,
    "sec4.2": _sec42,
    "sec4.3": _sec43,
    "sec5": _sec5,
    "sec5-reduced": _sec5_reduced,
    "sec5-sub2.1": _sec5_sub21,
    "sec6": _sec6,
    "sec7": _sec7,
    "sec7-reduced": _sec7_reduced,
}


def case_preset_names() -> list:
    return list(_CASE_BUILDERS)


def case_preset(name: str) -> CaseSpec:
    builder = _CASE_BUILDERS.get(name)
    if builder is None:
        raise KeyError(f"unknown case preset {name!r}; "
                       f"presets: {', '.join(_CASE_BUILDERS)}")
    return builder()


@dataclass
class MembershipResult:
    """Certification record for one quoted relation.

    ``certified_by`` distinguishes the strength of the certificate: the
    relation itself in the ideal (``ideal``), a small power in the ideal
    (``power-k``: the relation vanishes on the solution set), the
    localization encoding 1 in I + <1 - t*p> (``localization``, same
    conclusion), or ``ansatz`` when the ansatz constraints already force it.
    """

    factors: tuple
    text: str
    member: bool | None     # None: not decided (basis was partial)
    vacuous: bool           # claim already zero under the ansatz constraints
    certified_by: str

    def passed(self) -> bool:
        return self.member is True


@dataclass
class SolutionResult:
    name: str
    resolves_to: tuple
    satisfies_ansatz: bool
    annihilates_system: bool

    def passed(self) -> bool:
        return self.satisfies_ansatz and self.annihilates_system


@dataclass
class CaseReport:
    case: str
    title: str
    variables: int
    generators: int
    gb_reduced: bool
    resource_limited: bool
    stats: object
    memberships: list
    solutions: list

    def all_pass(self) -> bool:
        return (all(m.passed() for m in self.memberships)
                and all(s.passed() for s in self.solutions))

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "case": self.case,
            "title": self.title,
            "variables": self.variables,
            "generators": self.generators,
            "gb_reduced": self.gb_reduced,
            "resource_limited": self.resource_limited,
            "stats": self.stats.to_json() if self.stats else None,
            "memberships": [{
                "claim": m.text, "member": m.member, "vacuous": m.vacuous,
                "certified_by": m.certified_by} for m in self.memberships],
            "solutions": [dict(asdict(s), resolves_to=list(s.resolves_to))
                          for s in self.solutions],
            "all_pass": self.all_pass(),
        }

    def to_text(self) -> str:
        lines = [f"case {self.case}: {self.title}",
                 f"  unknowns {self.variables}, generators {self.generators}, "
                 f"gb={'reduced' if self.gb_reduced else 'partial'}"
                 f"{' (resource limited)' if self.resource_limited else ''}"]
        for m in self.memberships:
            status = "PASS" if m.passed() else ("UNDECIDED" if m.member is None
                                                else "FAIL")
            extra = " (imposed by ansatz)" if m.vacuous else ""
            lines.append(f"  member {m.text}: {status}{extra}")
        for s in self.solutions:
            status = "PASS" if s.passed() else "FAIL"
            lines.append(f"  solution {s.name} -> {','.join(s.resolves_to)}: {status}")
        lines.append(f"  all: {'PASS' if self.all_pass() else 'FAIL'}")
        return "\n".join(lines)


def run_case(spec: CaseSpec, limits: Limits | None = None) -> CaseReport:
    """Replay one case: system, Groebner basis, memberships, solutions.

    Membership certificates are sound even under a resource limit: a zero
    normal form against a partial basis still proves membership; only a
    nonzero normal form against a non-reduced basis is reported undecided.
    The limits are started once, so the Groebner run, the autoreduce of a
    partial basis and each localization share one deadline; once it has
    passed each remaining relation the ansatz does not settle is reported
    undecided.  Solutions are checked against the constraint rows
    the system was built from, and by their residual.
    """
    limits = (limits or Limits(max_pairs=200000, deadline=600.0)).start()
    ansatz = spec.ansatz()
    system, shape = generate_system(ansatz)
    work_system = system
    if spec.localize:
        q = shape.expand(spec.localize, spec.aliases)
        work_system = system.localize(q)
    try:
        gb = buchberger(work_system, limits)
    except ResourceLimitExceeded as exc:
        try:
            partial = autoreduce(exc.partial, work_system.order, limits)
        except ResourceLimitExceeded as stop:
            # what the stopped autoreduce carries generates the same ideal,
            # so zero normal forms against it stay sound
            partial = stop.partial
        gb = GroebnerBasis(work_system, tuple(partial), False, exc.stats)

    memberships = []
    for factors in spec.relations:
        polys = [shape.expand(f, spec.aliases) for f in factors]
        claim = polys[0]
        for p in polys[1:]:
            claim = claim * p
        if spec.localize:
            claim = claim.retable(work_system.table)
        text = " * ".join(f"({f})" if len(factors) > 1 else f for f in factors)
        if claim.is_zero():
            memberships.append(MembershipResult(factors, text, True, True, "ansatz"))
        else:
            memberships.append(_certify_membership(factors, text, claim, gb, limits))

    solution_results = []
    for solution in spec.solutions:
        op = solution.operator(ansatz.weight)
        ok_ansatz = shape.satisfied_by(op)
        # the generators are the residual's components under the constraints
        ok_system = ok_ansatz and rb_residual(op).is_zero()
        solution_results.append(SolutionResult(
            solution.name, solution.resolves_to, ok_ansatz, ok_system))

    return CaseReport(spec.name, spec.title, len(work_system.table),
                      len(work_system.gens), gb.reduced, not gb.reduced,
                      gb.stats, memberships, solution_results)


_MAX_POWER_CERT = 4


def _certify_membership(factors, text, claim, gb, limits) -> MembershipResult:
    """Certify that a relation vanishes on the case's solution set.

    Zero normal forms against ``gb`` are sound even when it is a partial
    basis.  A relation whose normal form is nonzero is retried as a power
    (p^k in the ideal implies p vanishes on the solution set) and then
    through the localization encoding, which decides vanishing exactly when
    ``gb`` is a full Groebner basis.  Once the case's started ``limits``
    have expired nothing is tried, and a localization they stop leaves the
    relation undecided (``member`` None), never refuted.
    """
    if limits.expired():
        return MembershipResult(factors, text, None, False, "undecided")
    if gb.contains(claim):
        return MembershipResult(factors, text, True, False, "ideal")
    power = claim
    for k in range(2, _MAX_POWER_CERT + 1):
        power = power * claim
        if gb.contains(power):
            return MembershipResult(factors, text, True, False, f"power-{k}")
    try:
        localized = replace(gb.system, gens=gb.basis)
        loc_gb = buchberger(localized.localize(claim, "t_loc"), limits)
        if len(loc_gb.basis) == 1 and loc_gb.basis[0].is_constant():
            return MembershipResult(factors, text, True, False, "localization")
        if gb.reduced:
            return MembershipResult(factors, text, False, False, "localization")
    except ResourceLimitExceeded:
        pass
    return MembershipResult(factors, text, None, False, "undecided")


def unit_square_certificate(case_name: str = "sec7") -> bool:
    """Certify the unit-square linear relations as explicit ideal members.

    Summing the residual cells over all diagonal basis pairs gives
    R(1)^2 - 2 R(R(1)) as an explicit rational combination of the case
    generators; with R(1) = e12 + e23 its components are exactly the claimed
    relations 2(R(e12) + R(e23)) = e13, so membership holds by construction.
    """
    spec = case_preset(case_name)
    _, shape = generate_system(spec.ansatz())
    residual = rb_residual(shape.operator).entries
    total = add_terms({}, ((pos, value) for ((u, v), pos), value in residual.items()
                           if u[0] == u[1] and v[0] == v[1]))
    # each claim is, up to sign, one component of the sum
    return all(-shape.expand(factors[0], spec.aliases) in total.values()
               for factors in _SEC7_UNIT_SQUARE)


# -- whole-catalog verification ---------------------------------------------------


@dataclass
class EntryReport:
    id: str
    params: tuple
    side_conditions: tuple
    provenance: str
    residual_zero: bool
    first_failure: object
    power_vanish_index: int | None
    r2_nonzero: bool
    image_dim: int
    unit_not_in_image: bool
    kernel_check: bool | None
    unit_power_identity: bool
    unit_image_nilpotent: bool
    unit_column_consistent: bool
    closure_trials: int = 0
    closure_failures: int = 0

    def all_pass(self) -> bool:
        return (self.residual_zero and self.unit_not_in_image
                and self.kernel_check in (True, None)
                and self.unit_power_identity and self.unit_image_nilpotent
                and self.unit_column_consistent
                and self.closure_failures == 0)

    def to_json(self) -> dict:
        data = {f.name: getattr(self, f.name) for f in fields(self)}
        failure = self.first_failure
        data.update(params=list(self.params),
                    side_conditions=list(self.side_conditions),
                    first_failure=None if failure is None else failure_json(failure),
                    all_pass=self.all_pass())
        return data


@dataclass
class VerifyReport:
    entries: list
    rb_index: int
    r2_nonzero: tuple
    samples: int

    def all_pass(self) -> bool:
        return all(e.all_pass() for e in self.entries)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "samples": self.samples,
            "rb_index": self.rb_index,
            "r2_nonzero": list(self.r2_nonzero),
            "entries": [e.to_json() for e in self.entries],
            "all_pass": self.all_pass(),
        }

    def to_text(self) -> str:
        header = (f"{'id':<5} {'residual':<9} {'R^k=0':<6} {'dim':<4} "
                  f"{'1!inIm':<7} {'lemmas':<7} {'closure':<8} provenance")
        lines = [header, "-" * len(header)]
        for e in self.entries:
            lemmas = "ok" if (e.kernel_check in (True, None)
                              and e.unit_power_identity
                              and e.unit_image_nilpotent) else "FAIL"
            closure = ("-" if not e.closure_trials else
                       ("ok" if not e.closure_failures
                        else f"{e.closure_failures} FAIL"))
            lines.append(
                f"{e.id:<5} {'zero' if e.residual_zero else 'NONZERO':<9} "
                f"{str(e.power_vanish_index):<6} {e.image_dim:<4} "
                f"{'yes' if e.unit_not_in_image else 'NO':<7} {lemmas:<7} "
                f"{closure:<8} {e.provenance}")
        ok = sum(1 for e in self.entries if e.all_pass())
        lines.append(f"{ok}/{len(self.entries)} OK, rb-index {self.rb_index}, "
                     f"R^2 != 0: {', '.join(self.r2_nonzero)}")
        return "\n".join(lines)


def _entry_report_by_id(eid: str, samples: int, seed: int) -> EntryReport:
    """The report of family ``eid``, which is built and certified here."""
    entry = _build_entry(eid)
    op = entry.operator
    lemma = check_lemma3(op)
    r1 = op.unit_image()
    unit_sum = UTMatrix.zero(3)
    for i in (1, 2, 3):
        unit_sum = unit_sum + op.image((i, i))
    k = op.power_vanish_index(cap=8)
    report = EntryReport(
        id=entry.id, params=entry.params, side_conditions=entry.side_conditions,
        provenance=entry.provenance, residual_zero=entry.residual_zero,
        first_failure=entry.first_failure, power_vanish_index=k,
        r2_nonzero=k is not None and k > 2,
        image_dim=op.image_dimension(),
        unit_not_in_image=lemma.unit_not_in_image,
        kernel_check=lemma.kernel_contains_image,
        unit_power_identity=lemma.unit_power_identity,
        unit_image_nilpotent=(r1.nilpotency_degree() is not None),
        unit_column_consistent=(r1 == unit_sum),
    )
    if samples and entry.residual_zero:
        rng = random.Random((seed, entry.id).__repr__())
        failures = 0
        for _ in range(samples):
            instance = entry.specialize(rng=rng)
            if not closure_trial(instance, rng):
                failures += 1
        report.closure_trials = samples
        report.closure_failures = failures
    return report


def verify_all(samples: int = 0, families: Sequence[str] | None = None,
               seed: int = 0, jobs: int = 1) -> VerifyReport:
    """Residual certification plus the lemma suite over the whole catalog.

    With ``families`` only the named families are built, certified and
    reported, in catalog order.  ``samples`` adds that many randomized
    scaling/conjugation closure trials per entry (at random rational
    parameter values).  Each family is built where its report is made: in
    this process, or in a worker when ``jobs`` > 1 spreads the families
    across processes; results merge in catalog order either way.
    """
    if samples < 0:
        raise ValueError(f"samples must be at least 0, not {samples}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, not {jobs}")
    wanted = list(_CATALOG_DEFS)
    if families is not None:
        families = set(families)
        if not families:
            raise ValueError("families must name at least one family, not none")
        unknown = families - set(wanted)
        if unknown:
            raise KeyError(f"unknown family id(s): {sorted(unknown)}")
        wanted = [eid for eid in wanted if eid in families]
    report = partial(_entry_report_by_id, samples=samples, seed=seed)
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            reports = list(pool.map(report, wanted))
    else:
        reports = [report(eid) for eid in wanted]
    return VerifyReport(reports, max(r.power_vanish_index or 0 for r in reports),
                        tuple(r.id for r in reports if r.r2_nonzero), samples)


# -- shipped data files -------------------------------------------------------------


def export_data(root) -> list:
    """Write catalog.json, the case presets, and sample operator files."""
    root = Path(root)
    written = []
    root.mkdir(parents=True, exist_ok=True)
    catalog_path = root / "catalog.json"
    entries = build_catalog(strict=False)
    write_json(catalog_path, {"schema": 1, "entries": [e.to_json() for e in entries]})
    written.append(catalog_path)
    cases_dir = root / "cases"
    cases_dir.mkdir(exist_ok=True)
    for name in case_preset_names():
        path = cases_dir / f"{name.replace('.', '_')}.json"
        write_json(path, case_preset(name).to_json())
        written.append(path)
    ops_dir = root / "operators"
    ops_dir.mkdir(exist_ok=True)
    for entry in entries:
        if entry.id in ("R5", "R40"):
            path = ops_dir / f"{entry.id.lower()}.json"
            entry.operator.save(path)
            written.append(path)
    return written
