"""The weight-zero classification data for U_3 and its certification.

The paper's table is transcribed once, as the package's data files:
``data/catalog.json`` holds the forty families R1..R40 as parametric
operators exactly as displayed, and ``data/cases/*.json`` the case ansaetze of
sections 4-7.  Each file is parsed once per process, and every entry or
preset handed out is a new object.  ``build_catalog`` certifies each family
by computing its residual identically in the parameters, so an edited file is
checked, not trusted.  The case driver replays the computational core: it
regenerates the polynomial system of a case ansatz, computes a Groebner
basis, certifies the quoted quadratic relations as ideal members, and
substitutes the claimed solution families back into the unsimplified system.

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

import json
import random
from dataclasses import asdict, dataclass, fields, replace
from fractions import Fraction
from functools import cache, partial, reduce
from importlib.resources import files
from pathlib import Path
from typing import Sequence

from .matrices import UTMatrix, basis_name
from .operators import (Ansatz, Operator, check_lemma3, failure_json,
                        generate_system, rb_residual)
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
    "verify_all",
    "export_data",
]

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
    residual_zero: bool
    first_failure: object   # the residual's first nonzero cell, or None

    def specialize(self, rng: random.Random) -> Operator:
        """A rational instance of the family, its parameters drawn from ``rng``."""
        if not self.params:
            return self.operator
        return self.operator.substitute_params({
            name: Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            for name in self.params})


def _data(*parts: str):
    """The package's data file ``data/<parts...>``, joined one segment at a time."""
    return reduce(lambda path, part: path / part, parts, files("rbu3") / "data")


@cache
def _shipped(*parts: str):
    """``_data(*parts)``, parsed once; callers copy what they hand out."""
    return json.loads(_data(*parts).read_text(encoding="utf-8"))


@cache
def _families() -> dict:
    """Family id -> its record in catalog.json, in catalog order."""
    return {data["id"]: data for data in _shipped("catalog.json")["entries"]}


def catalog_ids() -> list:
    return list(_families())


def build_catalog(strict: bool = True) -> list:
    """All forty families, each certified by its symbolic residual.

    With ``strict=True`` (the module contract) any identically-nonzero
    residual aborts the build with :class:`CatalogError`.  The reporting
    paths use ``strict=False`` and read the per-entry certification flags.
    """
    entries = [get_entry(eid) for eid in catalog_ids()]
    failures = [(e.id, e.first_failure) for e in entries if not e.residual_zero]
    if strict and failures:
        raise CatalogError(failures)
    return entries


def get_entry(eid: str) -> CatalogEntry:
    """The family ``eid``, with its symbolic residual's verdict recorded."""
    data = _families().get(eid)
    if data is None:
        raise KeyError(f"unknown family id {eid!r}")
    op = Operator.from_json(data)
    residual = rb_residual(op)
    return CatalogEntry(eid, tuple(data["params"]), tuple(data["side_conditions"]),
                        data["provenance"], op, residual.is_zero(),
                        residual.first_nonzero())


# -- case driver ---------------------------------------------------------------


@dataclass
class CaseSolution:
    name: str
    params: tuple
    images: dict           # basis name -> matrix literal over the params
    resolves_to: tuple

    def operator(self) -> Operator:
        return Operator.from_images(self.images, 3, self.params)


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


# the order in which presets are listed; their file names sort otherwise
_CASE_PRESETS = ("sec4.1", "sec4.2", "sec4.3", "sec5", "sec5-reduced",
                 "sec5-sub2.1", "sec6", "sec7", "sec7-reduced")


def _case_file(name: str) -> str:
    return f"{name.replace('.', '_')}.json"


def case_preset_names() -> list:
    return list(_CASE_PRESETS)


def case_preset(name: str) -> CaseSpec:
    """A new ``CaseSpec`` of the preset ``name``, read from its data file."""
    if name not in _CASE_PRESETS:
        raise KeyError(f"unknown case preset {name!r}; "
                       f"presets: {', '.join(_CASE_PRESETS)}")
    data = _shipped("cases", _case_file(name))
    solutions = tuple(CaseSolution(s["name"], tuple(s["params"]), dict(s["images"]),
                                   tuple(s["resolves_to"]))
                      for s in data["solutions"])
    return CaseSpec(data["name"], data["title"], tuple(data["constraints"]),
                    dict(data["aliases"]), tuple(map(tuple, data["relations"])),
                    solutions, data["localize"], data["notes"])


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
    system, shape = generate_system(spec.ansatz())
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
        op = solution.operator()
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
    closure_trials: int
    closure_failures: int

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
    rb_index: int | None   # None: some family has no vanishing power
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
                f"{e.power_vanish_index or 'none'!s:<6} {e.image_dim:<4} "
                f"{'yes' if e.unit_not_in_image else 'NO':<7} {lemmas:<7} "
                f"{closure:<8} {e.provenance}")
        ok = sum(1 for e in self.entries if e.all_pass())
        lines.append(f"{ok}/{len(self.entries)} OK, rb-index "
                     f"{'none' if self.rb_index is None else self.rb_index}, "
                     f"R^2 != 0: {', '.join(self.r2_nonzero)}")
        return "\n".join(lines)


def _entry_report_by_id(eid: str, samples: int, seed: int) -> EntryReport:
    """The report of family ``eid``, which is built and certified here."""
    entry = get_entry(eid)
    op = entry.operator
    lemma = check_lemma3(op)
    r1 = op.unit_image()
    unit_sum = sum((op.image((i, i)) for i in (1, 2, 3)), UTMatrix.zero(3))
    k = op.power_vanish_index(cap=8)
    # each sample draws its instance, then its trial, from the one rng
    trials = samples if entry.residual_zero else 0
    rng = random.Random((seed, entry.id).__repr__())
    failures = sum(not closure_trial(entry.specialize(rng), rng)
                   for _ in range(trials))
    return EntryReport(
        id=entry.id, params=entry.params, side_conditions=entry.side_conditions,
        provenance=entry.provenance, residual_zero=entry.residual_zero,
        first_failure=entry.first_failure, power_vanish_index=k,
        r2_nonzero=k is None or k > 2,
        image_dim=op.image_dimension(),
        unit_not_in_image=lemma.unit_not_in_image,
        kernel_check=lemma.kernel_contains_image,
        unit_power_identity=lemma.unit_power_identity,
        unit_image_nilpotent=(r1.nilpotency_degree() is not None),
        unit_column_consistent=(r1 == unit_sum),
        closure_trials=trials, closure_failures=failures,
    )


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
    wanted = catalog_ids()
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
    indices = [r.power_vanish_index for r in reports]
    return VerifyReport(reports, None if None in indices else max(indices),
                        tuple(r.id for r in reports if r.r2_nonzero), samples)


# -- shipped data files -------------------------------------------------------------


def export_data(root) -> list:
    """Copy the package's data files into ``root``, byte for byte."""
    written = []
    for parts in (("catalog.json",), *(("cases", _case_file(n)) for n in _CASE_PRESETS),
                  ("operators", "r5.json"), ("operators", "r40.json")):
        path = Path(root).joinpath(*parts)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(_data(*parts).read_bytes())
        written.append(path)
    return written
