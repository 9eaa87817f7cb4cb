"""The three workloads: inputs made from the seed, timed items, output checks.

Each workload is built from a namespace ``m`` holding the freshly imported
``rbu3`` modules.  Items call the program through ``m.<module>.<function>``
at call time, so the tracer's wrappers are seen when they are installed.

An item's check returns ``OK``, ``MISS`` (the program gave no answer where one
exists: an incomplete search, which lowers ``solved_ratio`` but is not a failed
operation) or ``WRONG`` (an answer that contradicts the reference, counted as
failed and making the run incorrect).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from pathlib import Path

REF_DIR = Path(__file__).resolve().parent / "ref"

OK, MISS, WRONG = "ok", "miss", "wrong"

# Trials per family in the closure workload: one pass takes about 2.7
# corrected seconds, so a 20 s run holds several.
CLOSURE_SAMPLES = 12
# Planted targets per certified family in the orbits workload.  They are the
# slowest searches, so the tail percentile falls among them; three per family
# keep it from hinging on a few seeded draws.
PLANTED_PER_FAMILY = 3
# The R^2 != 0 set the engine computes (README: the displayed table misses
# R25 and R26; R13 is shipped as displayed and fails the identity).
R2_NONZERO = frozenset({"R13", "R25", "R26", "R29", "R31", "R32", "R38",
                        "R39", "R40"})
NONZERO_RESIDUAL = frozenset({"R13"})


def _load_ref(name: str):
    with open(REF_DIR / name) as fh:
        return json.load(fh)


def _nonzero_fraction(rng: random.Random, num: int, den: int) -> Fraction:
    value = Fraction(0)
    while not value:
        value = Fraction(rng.randint(-num, num), rng.randint(1, den))
    return value


def _report_without_stats(report) -> dict:
    data = report.to_json()
    data.pop("stats")
    return data


def _planted(t, entry, rng):
    """(source, target): the family at seeded parameter values, and its image
    under a random psi, the flip with probability 1/2 and a nonzero scalar."""
    values = {}
    for name in entry.params:
        value = Fraction(-1)
        # kappa != -1 is the only side condition; -1 is skipped for all
        while value == -1:
            value = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        values[name] = value
    source = entry.operator.substitute_params(values) if values else entry.operator
    steps = (t.PsiStep(t.AutoParams(
        alpha=_nonzero_fraction(rng, 6, 4), beta=rng.randint(-5, 5),
        gamma=rng.randint(-5, 5), delta=_nonzero_fraction(rng, 6, 4),
        epsilon=rng.randint(-5, 5))),)
    if rng.random() < 0.5:
        steps += (t.ThetaStep(),)
    witness = t.Witness(steps, _nonzero_fraction(rng, 9, 7))
    return source, witness.transform_operator(source)


class Workload:
    """``items`` is a list of (key, call); ``check`` classifies one output."""

    items: list

    def final_checks(self) -> dict:
        """Checks run once after the timed passes: key -> WRONG."""
        return {}

    def layer_counts(self, outputs) -> dict:
        """Counts read from one pass's outputs, zero where a workload has none."""
        counts = {f"catalog.certified_by.{kind}": 0
                  for kind in ("ideal", "power", "localization", "ansatz")}
        counts.update({f"transform.search.{mix}.{status}": 0
                       for mix in ("pairs", "planted")
                       for status in ("found", "disjoint", "none")})
        return counts


class Cases(Workload):
    """Every case preset replayed through ``run_case``: large grevlex systems."""

    def __init__(self, m, seed: int):
        self.m = m
        m.catalog.build_catalog(strict=False)  # part of every workload's set-up
        self.ref = _load_ref("cases.json")
        self.specs = {name: m.catalog.case_preset(name)
                      for name in m.catalog.case_preset_names()}
        if set(self.specs) != set(self.ref):
            raise RuntimeError("case presets differ from the reference set")
        self.items = [(name, lambda spec=spec: m.catalog.run_case(spec))
                      for name, spec in self.specs.items()]

    def check(self, key, report) -> str:
        if _report_without_stats(report) != self.ref[key]["report"]:
            return WRONG
        return OK if report.all_pass() else WRONG

    def final_checks(self) -> dict:
        """Reduced basis of every preset against the reference (untimed)."""
        m = self.m
        failed = {}
        for name, spec in self.specs.items():
            system, shape = m.operators.generate_system(spec.ansatz())
            if spec.localize:
                system = system.localize(shape.expand(spec.localize, spec.aliases))
            gb = m.groebner.buchberger(
                system, m.groebner.Limits(max_pairs=200000, deadline=600.0))
            if gb.to_json()["basis"] != self.ref[name]["basis"]:
                failed[name] = WRONG
        return failed

    def layer_counts(self, outputs) -> dict:
        counts = super().layer_counts(outputs)
        for _, report in outputs:
            for membership in report.memberships:
                # power-2 .. power-4 count as power; undecided is not a certificate
                key = f"catalog.certified_by.{membership.certified_by.split('-')[0]}"
                if key in counts:
                    counts[key] += 1
        return counts


class Closure(Workload):
    """Closure trials of each family through ``verify_all`` (the
    ``verify-catalog --family F --samples N`` path): maps and residuals."""

    def __init__(self, m, seed: int):
        entries = m.catalog.build_catalog(strict=False)
        self.items = [
            (entry.id, lambda eid=entry.id: m.catalog.verify_all(
                samples=CLOSURE_SAMPLES, families=[eid], seed=seed))
            for entry in entries]

    def check(self, key, report) -> str:
        certified = key not in NONZERO_RESIDUAL
        in_r2 = key in R2_NONZERO
        (entry,) = report.entries
        ok = (entry.id == key
              and entry.residual_zero == certified
              and entry.closure_trials == (CLOSURE_SAMPLES if certified else 0)
              and entry.closure_failures == 0
              and report.r2_nonzero == ((key,) if in_r2 else ())
              and (report.rb_index == 3 if in_r2 else report.rb_index <= 2))
        return OK if ok else WRONG


class Orbits(Workload):
    """``find_conjugation`` on every pair of certified families and on planted
    targets of each family: many tiny lex systems, mostly the unit ideal."""

    def __init__(self, m, seed: int):
        t = m.transform
        self.ref = _load_ref("orbits_pairs.json")
        certified = [e for e in m.catalog.build_catalog(strict=False)
                     if e.residual_zero]
        self.cases = {}
        for i, a in enumerate(certified):
            for b in certified[i + 1:]:
                self.cases[f"{a.id}|{b.id}"] = (a.operator, b.operator)
        if set(self.cases) != set(self.ref):
            raise RuntimeError("family pairs differ from the reference set")
        rng = random.Random(f"orbits-{seed}")
        for entry in certified:
            for copy in range(PLANTED_PER_FAMILY):
                self.cases[f"planted:{entry.id}:{copy}"] = _planted(t, entry, rng)
        self.items = [
            (key, lambda pair=pair: m.transform.find_conjugation(
                pair[0], pair[1], allow_theta=True))
            for key, pair in self.cases.items()]

    def check(self, key, search) -> str:
        expected = self.ref.get(key, "found")
        if search.status == "found":
            source, target = self.cases[key]
            replays = search.witness.transform_operator(source) == target
            return OK if replays and expected == "found" else WRONG
        if search.status == expected:
            return OK
        if key.startswith("planted:") and search.status == "none":
            return MISS
        return WRONG

    def layer_counts(self, outputs) -> dict:
        counts = super().layer_counts(outputs)
        for key, search in outputs:
            mix = "planted" if key.startswith("planted:") else "pairs"
            counts[f"transform.search.{mix}.{search.status}"] += 1
        return counts


WORKLOADS = {"cases": Cases, "closure": Closure, "orbits": Orbits}
