"""The family catalog: certification, indices, dimensions, verification report."""

import pathlib
import random
from dataclasses import asdict
from fractions import Fraction
from importlib.resources import files

import pytest

from rbu3 import catalog
from rbu3.catalog import (CatalogError, EXPECTED_R2_NONZERO, build_catalog,
                          case_preset, catalog_ids, export_data, verify_all)
from rbu3.matrices import UTMatrix, parse_matrix
from rbu3.operators import Operator, rb_residual

from reference import identity

ENTRIES = build_catalog(strict=False)
BY_ID = {e.id: e for e in ENTRIES}


def test_catalog_has_forty_entries():
    assert len(ENTRIES) == 40
    assert catalog_ids() == [f"R{i}" for i in range(1, 41)]


def test_strict_build_raises_on_the_known_defect():
    with pytest.raises(CatalogError) as info:
        build_catalog(strict=True)
    assert [eid for eid, _ in info.value.failures] == ["R13"]


@pytest.mark.parametrize("eid", [e.id for e in ENTRIES if e.id != "R13"])
def test_residual_vanishes_identically(eid):
    assert BY_ID[eid].residual_zero, BY_ID[eid].first_failure


def test_r13_fails_the_defining_identity():
    """R13 as displayed is not a weight-zero solution: with R(1) = 0 the
    identity forces R^2 = 0, but R13 maps e11 -> e13 -> e12, so some residual
    cell must be nonzero.  The first one in scan order is (e11, e11)."""
    entry = BY_ID["R13"]
    assert not entry.residual_zero
    pair, pos, value = entry.first_failure
    assert pair == ((1, 1), (1, 1)) and pos == (1, 2) and value == Fraction(-1)
    # the structural contradiction spelled out
    op = entry.operator
    assert op.unit_image().is_zero()          # R(1) = 0 ...
    assert op.compose(op).image((1, 1)) == UTMatrix.basis(3, 1, 2)  # ... but R^2 != 0


def test_entry_r3_matches_display():
    op = BY_ID["R3"].operator
    assert op.image((1, 2)) == -UTMatrix.basis(3, 1, 1)
    assert op.image((1, 3)) == UTMatrix.basis(3, 2, 3)
    assert op.image((2, 2)).is_zero()


def test_parameter_specialization_keeps_residual_zero():
    entry = BY_ID["R26"]
    op = entry.operator.substitute_params({"kappa": Fraction(0)})
    assert op.image((1, 1)).is_zero()
    assert rb_residual(op).is_zero()


def test_r40_specialization_at_origin():
    op = BY_ID["R40"].operator.substitute_params({"b": Fraction(0),
                                                  "f": Fraction(0)})
    assert rb_residual(op).is_zero()
    assert op.image((1, 1)) == parse_matrix("e12 + e23")


def test_kappa_side_conditions_recorded():
    for eid in ("R26", "R28", "R31", "R32", "R34", "R35", "R36", "R37",
                "R38", "R39"):
        assert BY_ID[eid].side_conditions == ("kappa != -1",)
        assert BY_ID[eid].params == ("kappa",)


def test_rb_index_is_three():
    report = verify_all()
    assert report.rb_index == 3
    degrees = {e.id: e.power_vanish_index for e in report.entries}
    assert degrees["R5"] == 2
    assert degrees["R40"] == 3


def test_every_entry_cube_vanishes_identically():
    for entry in ENTRIES:
        k = entry.operator.power_vanish_index(cap=8)
        assert k is not None and k <= 3, entry.id


def test_r2_nonzero_set_as_computed():
    """The engine finds R^2 != 0 exactly on {R13, R25, R26, R29, R31, R32,
    R38, R39, R40}: the classically quoted list omits R25 and R26, whose
    squares send e23 to e12 and (kappa+1) e12."""
    report = verify_all()
    assert report.r2_nonzero == ("R13", "R25", "R26", "R29", "R31", "R32",
                                 "R38", "R39", "R40")
    r25 = BY_ID["R25"].operator
    assert r25.compose(r25).image((2, 3)) == UTMatrix.basis(3, 1, 2)
    assert set(EXPECTED_R2_NONZERO) - set(report.r2_nonzero) == set()


def test_image_dimensions():
    assert BY_ID["R40"].operator.image_dimension() == 3
    assert BY_ID["R11"].operator.image_dimension() == 1
    r1 = BY_ID["R1"].operator
    assert r1.substitute_params({name: Fraction(0)
                                 for name in BY_ID["R1"].params}).image_dimension() == 0
    dims = {e.id: e.operator.image_dimension() for e in ENTRIES}
    assert {k for k, v in dims.items() if v > 2} == {"R13", "R40"}


def test_zero_operator_power_index():
    assert Operator(3).power_vanish_index() == 1


def test_power_index_composes_at_most_the_dimension(monkeypatch):
    """A nilpotent R on the 6-dimensional U_3 has R^6 = 0, so a cap above 6
    changes no answer and makes no further power."""
    calls, compose = [], Operator.compose

    def counted(self, other):
        calls.append(1)
        assert len(calls) <= 6, "a power above R^6 was made"
        return compose(self, other)

    # e11 -> e12 -> e13 -> e22 -> e23 -> e33 -> 0 needs all six powers
    chain = Operator.from_images({"e11": "e12", "e12": "e13", "e13": "e22",
                                  "e22": "e23", "e23": "e33"})
    assert [chain.power_vanish_index(cap=cap) for cap in (1, 5, 6)] == \
        [None, None, 6]
    monkeypatch.setattr(Operator, "compose", counted)
    for op, index in ((identity(3), None), (chain, 6)):
        calls.clear()
        assert op.power_vanish_index(cap=10**9) == index
    with pytest.raises(ValueError):
        identity(3).power_vanish_index(cap=0)


def test_verify_report_fields():
    report = verify_all(samples=0)
    data = report.to_json()
    assert data["schema"] == 1 and data["rb_index"] == 3
    assert len(data["entries"]) == 40
    by_id = {e["id"]: e for e in data["entries"]}
    assert by_id["R40"]["image_dim"] == 3
    assert by_id["R13"]["residual_zero"] is False
    assert by_id["R13"]["first_failure"]["pair"] == ["e11", "e11"]
    assert all(e["unit_not_in_image"] for e in data["entries"])
    text = report.to_text()
    assert "rb-index 3" in text and "39/40 OK" in text


def test_verify_families_subset_and_unknown():
    report = verify_all(families=["R5", "R8"])
    assert [e.id for e in report.entries] == ["R5", "R8"]
    assert report.all_pass()
    with pytest.raises(KeyError):
        verify_all(families=["R99"])


def test_verify_rejects_an_empty_family_selection():
    for jobs in (1, 2):
        with pytest.raises(ValueError, match="at least one family"):
            verify_all(samples=1, families=[], jobs=jobs)


def test_named_families_are_built_alone(monkeypatch):
    import rbu3.catalog as catalog
    calls = []

    def counting_residual(op):
        calls.append(op)
        return rb_residual(op)

    monkeypatch.setattr(catalog, "rb_residual", counting_residual)
    r13 = catalog.get_entry("R13")
    assert len(calls) == 1
    assert r13.operator == BY_ID["R13"].operator
    assert not r13.residual_zero and r13.first_failure == BY_ID["R13"].first_failure
    with pytest.raises(KeyError):
        catalog.get_entry("R99")
    assert len(calls) == 1
    verify_all(families=["R8", "R5"])
    assert len(calls) == 3


def test_parallel_report_equals_serial():
    serial = verify_all(samples=2, families=["R5", "R8"], seed=3, jobs=1)
    parallel = verify_all(samples=2, families=["R5", "R8"], seed=3, jobs=2)
    assert parallel.to_json() == serial.to_json()


def test_parallel_families_are_built_in_the_workers_only(monkeypatch):
    calls = []

    def counted(op):
        calls.append(op)
        return rb_residual(op)

    monkeypatch.setattr(catalog, "rb_residual", counted)
    report = verify_all(samples=1, families=["R5", "R8"], seed=3, jobs=2)
    assert [e.id for e in report.entries] == ["R5", "R8"] and report.all_pass()
    assert calls == []  # the workers count in their own copies
    verify_all(samples=0, families=["R5", "R8"], jobs=1)
    assert len(calls) == 2  # serially, one symbolic residual per family


def test_fault_injection_is_detected():
    """Twenty single-entry mutations must each produce a pinpointed nonzero
    residual cell, guarding against a vacuously-passing checker."""
    rng = random.Random(20240818)
    targets = [e for e in ENTRIES if e.id != "R13" and not e.params]
    detected = 0
    attempts = 0
    while detected < 20 and attempts < 200:
        attempts += 1
        entry = targets[attempts % len(targets)]
        src = rng.choice(list((i, j) for i in (1, 2, 3) for j in range(i, 4)))
        dst = rng.choice([(1, 2), (1, 3), (2, 3), (1, 1), (2, 2)])
        columns = dict(entry.operator.columns)
        bumped = columns.get(src, UTMatrix.zero(3)) + \
            UTMatrix.basis(3, *dst).scale(Fraction(rng.randint(1, 3)))
        columns[src] = bumped
        mutated = Operator(3, columns)
        residual = rb_residual(mutated)
        if residual.is_zero():
            # the bump landed on another valid solution; such draws do not
            # exercise the checker, skip them (a vacuous checker would make
            # every draw look valid and the count below would stay at zero)
            continue
        pinpoint = residual.first_nonzero()
        assert pinpoint is not None, (entry.id, src, dst)
        detected += 1
    assert detected == 20


def test_unit_column_consistency():
    for entry in ENTRIES:
        total = UTMatrix.zero(3)
        for i in (1, 2, 3):
            total = total + entry.operator.image((i, i))
        assert entry.operator.unit_image() == total


def test_export_matches_shipped_data(tmp_path, monkeypatch):
    """``export-data`` copies, byte for byte, the package's data files, read
    here through ``importlib.resources``; it builds and parses no family."""
    def refuse(*args):
        raise AssertionError("export built a family")
    monkeypatch.setattr(catalog, "get_entry", refuse)
    monkeypatch.setattr(Operator, "from_json", refuse)
    written = export_data(tmp_path)
    assert len(written) == 12
    for path in written:
        rel = pathlib.Path(path).relative_to(tmp_path)
        shipped = files("rbu3") / "data"
        for part in rel.parts:
            shipped = shipped / part
        fresh = pathlib.Path(path).read_bytes()
        assert shipped.read_bytes() == fresh, f"export changed {rel}"


def test_returned_entries_and_presets_are_new_objects():
    """Mutating what the loader returned leaves the next call's result
    unchanged: the parsed files are cached, the values handed out are not."""
    spec = case_preset("sec5")
    before = asdict(spec)  # a deep copy
    spec.aliases["a"] = "b_11_11"
    spec.solutions[0].images["e11"] = "e33"
    assert asdict(case_preset("sec5")) == before
    entry = catalog.get_entry("R26")
    before = entry.operator.to_json()
    entry.operator.columns[(1, 1)] = UTMatrix.basis(3, 1, 1)
    del entry.operator.columns[(2, 2)]
    assert catalog.get_entry("R26").operator.to_json() == before
    assert before["images"].keys() == {"e11", "e22", "e23"}


def test_r34_and_r35_are_the_same_family_as_transcribed():
    """A defect of the table as transcribed: R34 and R35 have the same
    images and the same side condition, so one of them is not the paper's
    form.  R35's true form is open, and the data is left as it is."""
    r34, r35 = catalog.get_entry("R34"), catalog.get_entry("R35")
    assert r34.operator == r35.operator
    assert r34.side_conditions == r35.side_conditions == ("kappa != -1",)


def test_verify_all_rb_index_agrees_with_direct_powers():
    report = verify_all(samples=0)
    powers = {e.id: e.operator.power_vanish_index(cap=8)
              for e in build_catalog(strict=False)}
    assert report.r2_nonzero == tuple(eid for eid, k in powers.items() if k > 2)
    assert report.rb_index == max(powers.values())


def test_verify_all_on_one_family_reports_its_square():
    report = verify_all(families=["R25"])
    assert report.r2_nonzero == ("R25",) and report.rb_index == 3


@pytest.fixture
def rx_family(monkeypatch):
    """The catalog with one more family, RX = (e11 -> e11): R^k(e11) = e11
    for every k, so no power of it vanishes."""
    families = dict(catalog._families())
    families["RX"] = {"id": "RX", "images": {"e11": "e11"}, "n": 3,
                      "params": [], "provenance": "test", "schema": 1,
                      "side_conditions": [], "weight": "0"}
    monkeypatch.setattr(catalog, "_families", lambda: families)


def test_a_family_with_no_vanishing_power_has_a_nonzero_square(rx_family):
    """No power of RX vanishes, so its square does not either."""
    report = verify_all(families=["RX"])
    assert report.entries[0].power_vanish_index is None
    assert report.entries[0].r2_nonzero and report.r2_nonzero == ("RX",)


def test_a_family_with_no_vanishing_power_prints_none(rx_family):
    """RX's R^k=0 column says none, as the summary line's rb-index does."""
    text = verify_all(families=["RX"]).to_text()
    assert text.splitlines()[2].split()[:3] == ["RX", "NONZERO", "none"]
    assert "rb-index none," in text and "None" not in text


def test_a_family_with_no_vanishing_power_leaves_no_rb_index(rx_family):
    """Beside R25 (index 3), RX is not nilpotent: the reports give no index,
    where a count of RX as 0 would have left 3."""
    report = verify_all(families=["R25", "RX"])
    assert report.rb_index is None and report.to_json()["rb_index"] is None
    assert "rb-index none," in report.to_text()
    assert verify_all(families=["R25"]).rb_index == 3
