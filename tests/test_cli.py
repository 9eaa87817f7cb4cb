"""Command-line surface: exit codes, JSON determinism, round-trips."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

from rbu3 import cli
from rbu3.catalog import build_catalog, verify_all
from rbu3.operators import Operator
from rbu3.poly import write_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "rbu3" / "data"


def test_python_dash_m_runs_the_cli():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    done = subprocess.run([sys.executable, "-m", "rbu3", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: rbu3")


def test_verify_catalog_single_family(capsys):
    code = cli.main(["verify-catalog", "--family", "R5"])
    out = capsys.readouterr().out
    assert code == 0
    assert "1/1 OK" in out


def test_verify_catalog_full_reports_the_known_defect(capsys):
    code = cli.main(["verify-catalog"])
    out = capsys.readouterr().out
    assert code == 1
    assert "39/40 OK" in out and "rb-index 3" in out


def test_verify_catalog_unknown_family_is_usage_error(capsys):
    assert cli.main(["verify-catalog", "--family", "R99"]) == 2


def test_check_shipped_operator(capsys):
    code = cli.main(["check", str(DATA / "operators" / "r5.json")])
    assert code == 0
    assert "RB weight 0: YES" in capsys.readouterr().out


def test_check_projection_at_weight_minus_one(tmp_path, capsys):
    path = tmp_path / "diagonal.json"
    diagonal = Operator.from_images({"e11": "e11", "e22": "e22", "e33": "e33"})
    write_json(path, diagonal.to_json())
    assert cli.main(["check", str(path), "--weight", "-1"]) == 0
    assert "RB weight -1: YES" in capsys.readouterr().out
    assert cli.main(["check", str(path)]) == 1


def test_check_rejects_missing_file(capsys):
    assert cli.main(["check", "no-such-file.json"]) == 2


def test_canonicalize_flip_case(capsys):
    code = cli.main(["canonicalize", "e23"])
    out = capsys.readouterr().out
    assert code == 0
    assert "form: e12" in out and "theta13" in out


def test_canonicalize_idempotent_path(capsys):
    code = cli.main(["canonicalize", "e11 + 3*e12 + 5*e13"])
    out = capsys.readouterr().out
    assert code == 0 and "form: e11" in out


def test_canonicalize_parse_error_exit_code(capsys):
    assert cli.main(["canonicalize", "e12 + +"]) == 2


def test_canonicalize_rejects_juxtaposed_terms(capsys):
    assert cli.main(["canonicalize", "e12 e13"]) == 2
    assert "'+' or '-'" in capsys.readouterr().err


def test_system_feeds_gb_and_member(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    assert cli.main(["system", "--preset", "sec5-reduced", "--json",
                     str(sys_path)]) == 0
    assert cli.main(["gb", str(sys_path)]) == 0
    capsys.readouterr()
    # a generator of the system is trivially a member
    data = json.loads(sys_path.read_text())
    assert cli.main(["member", str(sys_path), data["gens"][0]]) == 0


def test_member_negative_exit_code(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    cli.main(["system", "--preset", "sec5-reduced", "--json", str(sys_path)])
    capsys.readouterr()
    assert cli.main(["member", str(sys_path), "b_22_12"]) == 1


def test_gb_resource_limit_exit_code(tmp_path, capsys):
    sys_path = tmp_path / "system.json"
    cli.main(["system", "--preset", "sec4.1", "--json", str(sys_path)])
    capsys.readouterr()
    assert cli.main(["gb", str(sys_path), "--max-pairs", "0"]) == 3


def test_case_preset_runs(capsys):
    code = cli.main(["case", "--preset", "sec5-reduced"])
    out = capsys.readouterr().out
    assert code == 0 and "all: PASS" in out


def test_case_unknown_preset(capsys):
    assert cli.main(["case", "--preset", "nope"]) == 2


def test_conjugate_flip(tmp_path, capsys):
    out_path = tmp_path / "conj.json"
    code = cli.main(["conjugate", str(DATA / "operators" / "r5.json"),
                     "--theta", "--json", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["images"] == {"e23": "e33"}


# the reports of ``conjugate`` below, byte for byte, as the composition of
# ``conjugate_operator`` and ``scale_operator`` wrote them
CONJUGATED = {"r5": """\
{
  "images": {
    "e22": "2/5*e23 + 2/5*e33",
    "e23": "2/5*e23 + 2/5*e33",
    "e33": "-2/5*e23 - 2/5*e33"
  },
  "n": 3,
  "params": [],
  "schema": 1,
  "weight": "0"
}
""", "r40": """\
{
  "images": {
    "e11": "-1/2*b*e13 - 1/2*f*e13",
    "e22": "1/5*e12 + 1/2*f*e13",
    "e23": "1/5*e13",
    "e33": "1/5*e12 + 1/2*b*e13 - 17/30*e13 + 5/2*e23"
  },
  "n": 3,
  "params": [
    "b",
    "f"
  ],
  "schema": 1,
  "weight": "0"
}
"""}


@pytest.mark.parametrize("name", ["r5", "r40"])
def test_conjugate_reports_the_flip_then_psi_byte_for_byte(name, capsys):
    code = cli.main(["conjugate", str(DATA / "operators" / f"{name}.json"),
                     "--theta", "--alpha", "2", "--beta=-1/3", "--delta", "5",
                     "--epsilon", "2", "--json", "-"])
    assert code == 0 and capsys.readouterr().out == CONJUGATED[name]


def test_find_conj_found_and_disjoint(tmp_path, capsys):
    r5 = DATA / "operators" / "r5.json"
    code = cli.main(["find-conj", str(r5), str(r5)])
    assert code == 0
    # write a target no automorphism can reach
    target = tmp_path / "r6.json"
    target.write_text(json.dumps(
        {"schema": 1, "n": 3, "weight": "0", "params": [],
         "images": {"e13": "e11"}}))
    capsys.readouterr()
    code = cli.main(["find-conj", str(r5), str(target)])
    out = capsys.readouterr().out
    assert code == 1 and "none found" in out
    # a unit ideal rules out one map and scale for all parameter values only
    assert "unit ideal" in out and "every parameter value" in out


def test_rb_index_command(capsys):
    code = cli.main(["rb-index", str(DATA / "operators" / "r40.json")])
    out = capsys.readouterr().out
    assert code == 0 and "R^k = 0: 3" in out


def test_rb_index_writes_a_null_index_when_no_power_vanishes(tmp_path, capsys):
    """R5^2 = 0 is past cap 1: the failed check still writes its report, so
    a stale file from an earlier run is not read as current."""
    path = tmp_path / "rbi.json"
    path.write_text('{"schema": 1, "power_vanish_index": 2}\n')
    code = cli.main(["rb-index", str(DATA / "operators" / "r5.json"),
                     "--cap", "1", "--json", str(path)])
    assert code == 1 and "no vanishing power up to cap 1" in capsys.readouterr().out
    assert json.loads(path.read_text()) == {"schema": 1, "power_vanish_index": None}


def test_export_data_prints_each_written_path(tmp_path, capsys):
    code = cli.main(["export-data", str(tmp_path / "out")])
    lines = capsys.readouterr().out.splitlines()
    assert code == 0 and len(lines) == 12
    assert sorted(lines) == sorted(str(p) for p in (tmp_path / "out").rglob("*.json"))
    assert lines[0] == str(tmp_path / "out" / "catalog.json")


def test_json_reports_are_deterministic(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        cli.main(["verify-catalog", "--family", "R40", "--json", str(path)])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    for path in paths:
        cli.main(["case", "--preset", "sec5-sub2.1", "--json", str(path)])
    assert paths[0].read_bytes() == paths[1].read_bytes()
    families = {e.id: e.operator for e in build_catalog(strict=False)}
    for source, target, status in (("R31", "R39", "found"),
                                   ("R5", "R6", "disjoint")):
        files = []
        for name in (source, target):
            files.append(str(tmp_path / f"{name}.json"))
            write_json(files[-1], families[name].to_json())
        for path in paths:
            cli.main(["find-conj", *files, "--allow-theta", "--json", str(path)])
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert json.loads(paths[0].read_text())["status"] == status


def test_report_json_reparses(tmp_path, capsys):
    path = tmp_path / "report.json"
    cli.main(["verify-catalog", "--family", "R5", "--json", str(path)])
    data = json.loads(path.read_text())
    assert data["schema"] == 1 and data["all_pass"] is True


def test_verify_catalog_parallel_workers(capsys):
    code = cli.main(["verify-catalog", "--family", "R5", "--family", "R8",
                     "--jobs", "2"])
    out = capsys.readouterr().out
    assert code == 0 and "2/2 OK" in out


def test_check_at_nonzero_weight(tmp_path, capsys):
    # the zero operator satisfies the identity at any weight
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"schema": 1, "n": 3, "weight": "0",
                                "params": [], "images": {}}))
    code = cli.main(["check", str(path), "--weight", "1/2"])
    out = capsys.readouterr().out
    assert code == 0 and "RB weight 1/2: YES" in out


def _system_file(tmp_path, capsys, preset="sec5-reduced"):
    path = tmp_path / "system.json"
    assert cli.main(["system", "--preset", preset, "--json", str(path)]) == 0
    capsys.readouterr()
    return str(path)


def test_input_errors_exit_2_with_one_error_line(tmp_path, capsys):
    path = _system_file(tmp_path, capsys)
    r5 = str(DATA / "operators" / "r5.json")
    listing = tmp_path / "list.json"
    listing.write_text("[]\n")
    for argv, message in (
            (["system", "--preset", "nope"], "unknown case preset 'nope'"),
            (["system", "--ansatz", str(listing)], f"{listing}: not a JSON object"),
            (["canonicalize", "e11 + e22 + e33"], "rank must be 1 or 2"),
            (["gb", path, "--order", "elim", "--elim", "0"],
             "elimination order needs a positive block size"),
            (["conjugate", r5, "--alpha", "0"],
             "alpha and delta must be invertible")):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {message}"), argv
        assert captured.err.count("\n") == 1 and captured.out == "", argv


def test_unknown_preset_reads_the_same_for_case_and_system(capsys):
    assert cli.main(["case", "--preset", "nope"]) == 2
    case_err = capsys.readouterr().err
    assert cli.main(["system", "--preset", "nope"]) == 2
    assert capsys.readouterr().err == case_err
    assert case_err.startswith("error: unknown case preset 'nope'; presets: sec4.1, ")


def test_failed_witness_self_check_is_not_an_input_error(monkeypatch, capsys):
    from rbu3 import transform
    monkeypatch.setattr(transform.Witness, "act_element",
                        lambda self, x: x.scale(2))
    with pytest.raises(AssertionError):
        cli.main(["canonicalize", "e12"])


def test_operator_commands_refuse_a_system_file(tmp_path, capsys):
    path = _system_file(tmp_path, capsys)
    for argv in (["check", path], ["rb-index", path], ["conjugate", path, "--theta"]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: ") and "'images'" in captured.err


def test_system_commands_refuse_an_operator_file(capsys):
    r5 = str(DATA / "operators" / "r5.json")
    for argv in (["gb", r5], ["member", r5, "b_11_11"]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'vars'" in err and "'gens'" in err


def test_check_reports_the_first_failure(tmp_path, capsys):
    path = tmp_path / "diagonal.json"
    diagonal = Operator.from_images({"e11": "e11", "e22": "e22", "e33": "e33"})
    write_json(path, diagonal.to_json())
    out_path = tmp_path / "check.json"
    assert cli.main(["check", str(path), "--json", str(out_path)]) == 1
    assert capsys.readouterr().out == (
        "RB weight 0: NO\n"
        "  first nonzero residual: pair (e11,e11) position e11 value -1\n")
    data = json.loads(out_path.read_text())
    assert data["first_failure"] == {"pair": ["e11", "e11"], "position": "e11",
                                     "value": "-1"}
    assert data["is_rb"] is False and "lemma_checks" not in data


def test_conjugate_by_psi_with_default_parameters(tmp_path, capsys):
    out_path = tmp_path / "conj.json"
    code = cli.main(["conjugate", str(DATA / "operators" / "r5.json"),
                     "--beta", "2", "--epsilon", "-1", "--json", str(out_path)])
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["images"] == {"e11": "2*e11 - 4*e12 - 4*e13",
                              "e12": "e11 - 2*e12 - 2*e13",
                              "e22": "-2*e11 + 4*e12 + 4*e13"}
    # the same report goes to standard output
    assert capsys.readouterr().out == out_path.read_text()


def test_resource_limit_exit_code_for_every_engine_command(tmp_path, capsys):
    path = _system_file(tmp_path, capsys, "sec4.1")
    r5 = str(DATA / "operators" / "r5.json")
    for argv in (["gb", path], ["member", path, "b_22_12"], ["find-conj", r5, r5]):
        assert cli.main([*argv, "--max-pairs", "0"]) == 3, argv
        assert capsys.readouterr().err.startswith("resource limit:"), argv


def test_resource_limit_message_is_printed_once(tmp_path, capsys):
    path = _system_file(tmp_path, capsys, "sec4.1")
    r5 = str(DATA / "operators" / "r5.json")
    for argv in (["gb", path], ["member", path, "b_22_12"], ["find-conj", r5, r5]):
        assert cli.main([*argv, "--max-pairs", "0"]) == 3, argv
        assert capsys.readouterr().err == "resource limit: more than 0 pairs\n", argv


def test_invalid_limits_exit_2_with_one_error_line(tmp_path, capsys):
    path = _system_file(tmp_path, capsys)
    r5 = str(DATA / "operators" / "r5.json")
    for argv in (["gb", path], ["case", "--preset", "sec5-reduced"],
                 ["find-conj", r5, r5]):
        for option, value, message in (
                ("--deadline", "nan", "deadline must be nonnegative"),
                ("--deadline", "-5", "deadline must be nonnegative"),
                ("--max-pairs", "-1", "max_pairs must be nonnegative")):
            assert cli.main([*argv, option, value]) == 2, (argv, option, value)
            captured = capsys.readouterr()
            assert captured.err.startswith(f"error: {message}"), (argv, value)
            assert captured.err.count("\n") == 1 and captured.out == "", argv


def test_every_command_help_lists_its_options():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    limited = {"gb", "member", "find-conj", "case"}
    commands = ("verify-catalog", "check", "system", "gb", "member",
                "canonicalize", "conjugate", "find-conj", "rb-index", "case",
                "export-data")
    for command in commands:
        done = subprocess.run([sys.executable, "-m", "rbu3", command, "--help"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, (command, done.stderr)
        assert ("--json" in done.stdout) == (command != "export-data"), command
        for option in ("--max-pairs", "--deadline"):
            assert (option in done.stdout) == (command in limited), (command, option)


def _json_commands(tmp_path, capsys):
    """One cheap invocation of every command that takes ``--json``."""
    path = _system_file(tmp_path, capsys)
    r5 = str(DATA / "operators" / "r5.json")
    return (["verify-catalog", "--family", "R5", "--samples", "1"],
            ["check", r5], ["system", "--preset", "sec5-reduced"], ["gb", path],
            ["member", path, "b_22_12"], ["canonicalize", "e23"],
            ["conjugate", r5, "--theta"], ["find-conj", r5, r5],
            ["rb-index", str(DATA / "operators" / "r40.json")],
            ["case", "--preset", "sec5-sub2.1"])


def test_json_path_holds_the_document_that_json_dash_ends_stdout_with(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    for argv in _json_commands(tmp_path, capsys):
        code = cli.main([*argv, "--json", str(out_path)])
        capsys.readouterr()
        document = out_path.read_text()
        out_path.unlink()
        assert cli.main([*argv, "--json", "-"]) == code, argv
        out = capsys.readouterr().out
        assert document.startswith("{") and out.endswith(document), argv


def test_json_path_in_a_missing_directory_is_one_error_line(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "report.json")
    for argv in _json_commands(tmp_path, capsys):
        assert cli.main([*argv, "--json", missing]) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv


def test_conjugate_json_dash_prints_its_report_once(capsys):
    r5 = str(DATA / "operators" / "r5.json")
    assert cli.main(["conjugate", r5, "--theta", "--json", "-"]) == 0
    out = capsys.readouterr().out
    assert out.count('"schema"') == 1
    assert json.loads(out)["images"] == {"e23": "e33"}


def _rejected_with_nothing_written(argv, tmp_path, capsys, message):
    out_path = tmp_path / "report.json"
    assert cli.main([*argv, "--json", str(out_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and not out_path.exists()
    assert captured.err == f"error: {message}\n"


def test_verify_catalog_rejects_negative_samples(tmp_path, capsys):
    _rejected_with_nothing_written(
        ["verify-catalog", "--family", "R5", "--samples", "-3"], tmp_path, capsys,
        "samples must be at least 0, not -3")
    with pytest.raises(ValueError):
        verify_all(samples=-1, families=["R5"])


def test_verify_catalog_rejects_jobs_below_one(tmp_path, capsys):
    _rejected_with_nothing_written(
        ["verify-catalog", "--family", "R5", "--jobs", "-4"], tmp_path, capsys,
        "jobs must be at least 1, not -4")
    with pytest.raises(ValueError):
        verify_all(families=["R5"], jobs=0)


def test_rb_index_rejects_cap_below_one(tmp_path, capsys):
    for cap in ("-2", "0"):
        _rejected_with_nothing_written(
            ["rb-index", str(DATA / "operators" / "r40.json"), "--cap", cap],
            tmp_path, capsys, f"cap must be at least 1, not {cap}")


def test_an_algebra_size_below_one_exits_2_with_no_verdict(tmp_path, capsys):
    for n in (-2, 0):
        path = tmp_path / f"size{n}.json"
        path.write_text(json.dumps({"n": n, "weight": "0", "params": [],
                                    "images": {}}))
        for command in (["check"], ["rb-index"], ["conjugate", "--theta"]):
            argv = [command[0], str(path), *command[1:]]
            _rejected_with_nothing_written(argv, tmp_path, capsys,
                                           "algebra size must be at least 1")


def test_gb_rejects_elim_without_the_elim_order(tmp_path, capsys):
    path = _system_file(tmp_path, capsys)
    for order in ([], ["--order", "lex"], ["--order", "grevlex"]):
        _rejected_with_nothing_written(
            ["gb", path, *order, "--elim", "2"], tmp_path, capsys,
            "--elim needs --order elim")
    # with the elim order, the block size defaults to 1
    out_path = tmp_path / "gb.json"
    assert cli.main(["gb", path, "--order", "elim", "--json", str(out_path)]) == 0
    assert json.loads(out_path.read_text())["order"] == {"elim": 1}


def test_paths_used_wrongly_exit_2_with_one_error_line(tmp_path, capsys):
    # reading a directory, writing a report onto one, and making the data
    # directory where a file stands: each an OSError, not a failed check
    a_file = tmp_path / "notes.txt"
    a_file.write_text("a file\n")
    for argv in (["check", str(tmp_path)],
                 ["rb-index", str(DATA / "operators" / "r40.json"),
                  "--json", str(tmp_path)],
                 ["export-data", str(a_file)]):
        assert cli.main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert a_file.read_text() == "a file\n"


def test_system_ansatz_refuses_a_file_without_constraints(capsys):
    r5 = DATA / "operators" / "r5.json"
    assert cli.main(["system", "--ansatz", str(r5)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: {r5}: not the expected kind of file "
                            "(no 'constraints')\n")
    # a case file carries its constraints, so it is an ansatz file
    assert cli.main(["system", "--ansatz", str(DATA / "cases" / "sec4_1.json")]) == 0
    from_file = capsys.readouterr().out
    assert cli.main(["system", "--preset", "sec4.1"]) == 0
    assert capsys.readouterr().out == from_file


def test_undefined_or_inexact_rationals_exit_2_with_one_error_line(tmp_path, capsys):
    r5 = DATA / "operators" / "r5.json"
    data = json.loads(r5.read_text())
    undefined = tmp_path / "undefined.json"
    undefined.write_text(json.dumps(dict(data, weight="1/0")))
    inexact = tmp_path / "inexact.json"
    inexact.write_text(json.dumps(dict(data, weight=0.1)))
    ansatz = tmp_path / "ansatz.json"
    ansatz.write_text('{"constraints": ["b_11_11"], "weight": 0.5}')
    zero = "error: '1/0' has a zero denominator"
    for argv, message in (
            (["canonicalize", "1/0*e12"], "parse error: expected a nonzero "
             "denominator after '/' (at position 2)"),
            (["conjugate", str(r5), "--alpha", "1/0"], zero),
            (["check", str(r5), "--weight", "1/0"], zero),
            (["check", str(undefined)], zero),
            (["check", str(inexact)],
             f"error: {inexact}: 0.1 is a float; write it as a string"),
            (["system", "--ansatz", str(ansatz)],
             f"error: {ansatz}: 0.5 is a float; write it as a string")):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == message + "\n" and captured.out == "", argv


@pytest.mark.parametrize("field, value, message", [
    ("images", {"e11": 3}, "bad operator images {'e11': 3}"),
    ("images", ["e11"], "bad operator images ['e11']"),
    ("weight", True, "bad operator weight True"),
    ("n", True, "bad operator n True"),
    ("params", "kappa", "bad operator params 'kappa'"),
])
def test_operator_file_fields_of_the_wrong_type_exit_2(tmp_path, capsys, field,
                                                        value, message):
    """A field of the wrong JSON type is refused with one error line, no
    traceback and no verdict, for every command that reads an operator."""
    data = json.loads((DATA / "operators" / "r40.json").read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(data, **{field: value})))
    for argv in (["check", str(path)], ["rb-index", str(path)],
                 ["conjugate", str(path), "--theta"],
                 ["find-conj", str(path), str(path)]):
        assert cli.main(argv) == 2, argv
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == "", argv


@pytest.mark.parametrize("field, value, message", [
    ("n", True, "bad ansatz n True"),
    ("n", "3", "bad ansatz n '3'"),
    ("weight", True, "bad ansatz weight True"),
    ("weight", ["0"], "bad ansatz weight ['0']"),
    ("constraints", [3], "bad ansatz constraints [3]"),
    ("constraints", "b_11_11", "bad ansatz constraints 'b_11_11'"),
])
def test_ansatz_file_fields_of_the_wrong_type_exit_2(tmp_path, capsys, field,
                                                      value, message):
    data = {"n": 3, "weight": "0", "constraints": ["b_11_11"]}
    path = tmp_path / "ansatz.json"
    path.write_text(json.dumps(dict(data, **{field: value})))
    _rejected_with_nothing_written(["system", "--ansatz", str(path)], tmp_path,
                                   capsys, message)


@pytest.mark.parametrize("field, value, message", [
    ("gens", [3], "bad system gens [3]"),
    ("gens", "b_22_12", "bad system gens 'b_22_12'"),
    ("vars", "abc", "bad system vars 'abc'"),
    ("vars", [1], "bad system vars [1]"),
    # an elimination block size must be an int, not a bool or a string
    ("order", {"elim": True}, "bad monomial order spec {'elim': True}"),
    ("order", {"elim": "2"}, "bad monomial order spec {'elim': '2'}"),
    ("order", {"elim": None}, "bad monomial order spec {'elim': None}"),
    ("order", {"elim": [1]}, "bad monomial order spec {'elim': [1]}"),
])
def test_system_file_fields_of_the_wrong_type_exit_2(tmp_path, capsys, field,
                                                     value, message):
    """For both commands that read a system file."""
    data = json.loads(pathlib.Path(_system_file(tmp_path, capsys)).read_text())
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(dict(data, **{field: value})))
    for argv in (["gb", str(path)], ["member", str(path), "b_22_12"]):
        _rejected_with_nothing_written(argv, tmp_path, capsys, message)

# -- pinned find-conj reports ---------------------------------------------------

# (source family, parameter values, planted psi (alpha, beta, gamma, delta,
# epsilon), the flip, the scalar, whether the search may scale): the target
# is the source under that witness, and the search runs with the flip allowed
PLANTED_SEARCHES = {
    "R31-kappa-flip": ("R31", {"kappa": "-3/2"}, ("5/2", 3, -1, "-2/3", 4),
                       True, "-7/4", True),
    "R31-parametric": ("R31", {}, (2, -1, 3, "1/3", -2), False, 5, True),
    "R20": ("R20", {}, (-3, 2, 4, "-1/2", 3), False, "-2/3", True),
    "R23-flip": ("R23", {}, ("1/3", 1, 1, 3, 4), True, -1, True),
    "R40-flip": ("R40", {}, ("-3/4", 2, -5, 6, 1), True, "9/2", True),
    "R5-unscaled": ("R5", {}, (3, -2, 1, "-1/2", 5), False, 1, False),
    "R34-unscaled-flip": ("R34", {}, (-2, 1, 0, "3/5", -4), True, 1, False),
}


def pinned_searches():
    """name -> (source, target, extra find-conj arguments): the certified
    pairs the search answers ``found``, and the planted targets."""
    from fractions import Fraction
    from rbu3.transform import AutoParams, PsiStep, ThetaStep, Witness
    families = {e.id: e.operator for e in build_catalog(strict=False)}
    searches = {}
    for pair in ("R15|R16", "R22|R24", "R31|R39", "R32|R38", "R34|R35",
                 "R34|R36", "R35|R36"):
        a, b = pair.split("|")
        searches[pair] = (families[a], families[b], [])
    for name, (family, values, params, flip, scalar, scaled) in (
            PLANTED_SEARCHES.items()):
        source = families[family]
        if values:
            source = source.substitute_params(
                {k: Fraction(v) for k, v in values.items()})
        witness = Witness((PsiStep(AutoParams(*map(Fraction, params))),)
                          + (ThetaStep(),) * flip, Fraction(scalar))
        searches[name] = (source, witness.transform_operator(source),
                          [] if scaled else ["--no-scaling"])
    return searches


def psi(*values):
    """A witness step's JSON: psi at (alpha, beta, gamma, delta, epsilon)."""
    return {"psi": dict(zip(("alpha", "beta", "gamma", "delta", "epsilon"),
                            values))}


# name -> (witness maps, scalar) of each ``found`` report
PINNED_WITNESSES = {
    "R15|R16": ([psi("1", "0", "1", "1", "1")], "1"),
    "R22|R24": ([psi("1", "0", "0", "1", "0"), "theta13"], "1"),
    "R31|R39": ([psi("1", "0", "1", "1", "0"), "theta13"], "1"),
    "R32|R38": ([psi("1", "0", "1", "1", "0"), "theta13"], "1"),
    "R34|R35": ([psi("1", "0", "1", "1", "0")], "1"),
    "R34|R36": ([psi("1", "0", "1", "1", "0"), "theta13"], "1"),
    "R35|R36": ([psi("1", "0", "1", "1", "0"), "theta13"], "1"),
    "R31-kappa-flip": ([psi("1", "12/25", "1", "-8/75", "8/5"), "theta13"],
                       "-35/8"),
    "R31-parametric": ([psi("1", "-1/4", "1", "1/12", "-1")], "10"),
    "R20": ([psi("-3/4", "1", "1", "-1/4", "3/4")], "-1/3"),
    "R23-flip": ([psi("3", "4", "3", "-1/3", "-1")], "3"),
    "R40-flip": ([psi("-3/4", "1", "1", "6", "-11"), "theta13"], "9/2"),
    "R5-unscaled": ([psi("1", "-2", "1", "-1/2", "11/6")], "1"),
    "R34-unscaled-flip": ([psi("-2", "1", "1", "3/5", "-4"), "theta13"], "1"),
}


@pytest.mark.parametrize("name", list(PINNED_WITNESSES))
def test_find_conj_reports_are_pinned(name, tmp_path, capsys):
    """The status and the witness a search reports, byte for byte: another
    valid witness would also replay, so only this pins which one is found."""
    source, target, extra = pinned_searches()[name]
    files = [str(tmp_path / "source.json"), str(tmp_path / "target.json")]
    write_json(files[0], source.to_json())
    write_json(files[1], target.to_json())
    out_path = tmp_path / "report.json"
    assert cli.main(["find-conj", *files, "--allow-theta", *extra,
                     "--json", str(out_path)]) == 0
    maps, scalar = PINNED_WITNESSES[name]
    expected = {"schema": 1, "status": "found",
                "witness": {"maps": maps, "scalar": scalar}}
    assert out_path.read_text() == json.dumps(expected, indent=2,
                                              sort_keys=True) + "\n"
