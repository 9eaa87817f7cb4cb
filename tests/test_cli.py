"""Command-line surface: exit codes, JSON determinism, round-trips."""

import json
import os
import pathlib
import subprocess
import sys

from rbu3 import cli
from rbu3.catalog import build_catalog
from rbu3.operators import Operator

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "data"


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
    Operator.from_images({"e11": "e11", "e22": "e22", "e33": "e33"}).save(path)
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


def test_rb_index_command(capsys):
    code = cli.main(["rb-index", str(DATA / "operators" / "r40.json")])
    out = capsys.readouterr().out
    assert code == 0 and "R^k = 0: 3" in out


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
            families[name].save(files[-1])
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
