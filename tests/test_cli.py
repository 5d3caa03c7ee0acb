"""CLI: output shapes, exit codes, stdin plumbing, byte determinism."""

import io
import json
import subprocess
import sys
import time

import pytest

import dualgraph.cli as cli
from dualgraph.dgn import serialize_dgn
from dualgraph.families import FamilyInstance, build_family


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def doc_of(capsys, *argv, expect=0):
    code, out, err = run_cli(capsys, *argv)
    assert code == expect, err
    return json.loads(out)


def family_dgn(**kw) -> str:
    return serialize_dgn(build_family(FamilyInstance(**kw), strict=False))


# -- twig subcommands -----------------------------------------------------------


def test_twig_adjoint_example(capsys):
    assert doc_of(capsys, "twig", "adjoint", "[3]") == {"adjoint": "[2,2]"}


def test_twig_det_and_repetition(capsys):
    assert doc_of(capsys, "twig", "det", "[2,3]") == {"d": 5}
    assert doc_of(capsys, "twig", "det", "[3*2]") == {"d": 4}


def test_twig_inductance_round_trip(capsys):
    assert doc_of(capsys, "twig", "inductance", "[2,3]") == {"e": "3/5"}
    assert doc_of(capsys, "twig", "from-e", "3/5") == {"twig": "[2,3]"}


def test_twig_parse_error_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "twig", "det", "2,3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_twig_from_e_domain_error_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "twig", "from-e", "7/5")
    assert code == 1
    assert "error:" in err


# -- graph subcommands ------------------------------------------------------------


def test_graph_negdef_past_bound_is_false(capsys, tmp_path):
    g = build_family(FamilyInstance(family=3, A=(2,), n=2, l=5), strict=False)
    path = tmp_path / "g.dgn"
    path.write_text(serialize_dgn(g.minus_c()))
    assert doc_of(capsys, "graph", "negdef", str(path)) == {"negdef": False}


def test_graph_det_on_family_boundary(capsys, tmp_path):
    path = tmp_path / "g.dgn"
    path.write_text(family_dgn(family=6, A=(2,), n=2, b=(3,)))
    assert doc_of(capsys, "graph", "det", str(path)) == {"d": -1, "signed": -1}


def test_graph_dnatural_chain_values(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("chain 1 -3 -2\n"))
    got = doc_of(capsys, "graph", "dnatural", "-")
    assert got == {"alpha": [[1, "2/5"], [2, "1/5"]]}


def test_graph_dnatural_rejects_marked_graph(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("v 1 -1 C\n"))
    code, _, err = run_cli(capsys, "graph", "dnatural", "-")
    assert code == 1
    assert "error:" in err


def test_graph_ktype_trivial_instance(capsys, tmp_path):
    path = tmp_path / "g.dgn"
    path.write_text(family_dgn(family=3, A=(2,), n=3, l=7))
    got = doc_of(capsys, "graph", "ktype", str(path))
    assert got == {"ktype": "trivial", "pairing": "1"}


def test_graph_contract_keeps_determinant(capsys, tmp_path):
    path = tmp_path / "g.dgn"
    path.write_text(family_dgn(family=2, A=(3,), n=2))
    got = doc_of(capsys, "graph", "contract", str(path))
    contracted = got["graph"]
    (tmp_path / "h.dgn").write_text(contracted)
    det = doc_of(capsys, "graph", "det", str(tmp_path / "h.dgn"))
    assert det["d"] == -1


def test_graph_shape_reports_components(capsys, tmp_path):
    path = tmp_path / "g.dgn"
    path.write_text(family_dgn(family=5, A=(2,), n=2, l=0, b=(3,), m=1))
    got = doc_of(capsys, "graph", "shape", str(path))
    assert got["is_tree"] is True
    assert got["c_degree"] == 2
    assert len(got["components"]) == 2
    kinds = sorted(c["kind"] for c in got["components"])
    assert kinds == sorted(["star", "chain"]) or all(
        k in ("chain", "star") for k in kinds
    )


def test_graph_missing_file_is_exit_2(capsys, tmp_path):
    code, _, err = run_cli(capsys, "graph", "negdef", str(tmp_path / "nope.dgn"))
    assert code == 2
    assert "cannot read" in err


# -- family subcommands ------------------------------------------------------------


def test_family_build_frozen_bytes(capsys):
    got = doc_of(capsys, "family", "build", '{"family":1,"n":2}')
    assert got == {"graph": "v 1 0 C\nv 2 -2\ne 1 2\n"}


def test_family_build_bound_enforcement(capsys):
    spec = '{"family":3,"A":[2],"n":2,"l":5}'
    code, _, err = run_cli(capsys, "family", "build", spec)
    assert code == 1
    assert "l out of range" in err
    got = doc_of(capsys, "family", "build", spec, "--allow-noncontractible")
    assert got["graph"].count("\nv") + 1 == 10  # vertices survive past the bound


def test_family_build_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO('{"family":1,"n":4}'))
    got = doc_of(capsys, "family", "build", "-")
    assert got == {"graph": "v 1 0 C\nv 2 -4\ne 1 2\n"}


def test_family_classify_round_trip(capsys, tmp_path):
    spec = {"family": 5, "A": [2, 3], "n": 2, "l": 1, "b": [4], "m": 0}
    path = tmp_path / "g.dgn"
    path.write_text(
        family_dgn(family=5, A=(2, 3), n=2, l=1, b=(4,), m=0)
    )
    got = doc_of(capsys, "family", "classify", str(path))
    assert got["spec"] == spec
    assert spec in got["matches"]


def test_family_classify_not_in_list(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO("chain 1 -2 -2\n"))
    got = doc_of(capsys, "family", "classify", "-")
    assert got == {"not_in_list": "no C-marked vertex"}


def test_family_ktype_pinned_example(capsys):
    got = doc_of(capsys, "family", "ktype", '{"family":3,"A":[2],"n":3,"l":7}')
    assert got == {"ktype": "trivial"}


def test_family_spec_json_error_is_exit_2(capsys):
    code, _, err = run_cli(capsys, "family", "build", '{"family":3')
    assert code == 2
    assert "invalid spec JSON" in err


def test_family_unknown_field_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "family", "build", '{"family":1,"n":2,"x":0}')
    assert code == 1


# -- verify -------------------------------------------------------------------------


def test_verify_single_suite_report(capsys):
    got = doc_of(capsys, "verify", "--suite", "fujita", "--max-len", "2")
    assert got["suite"] == "fujita"
    assert got["pass"] is True
    assert got["failures"] == []
    assert got["instances"] == 30  # 5 + 25 twigs at len <= 2, weights <= 6


def test_verify_writes_identical_json_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "verify", "--suite", "fujita", "--max-len", "2",
        "--json", str(path),
    )
    assert code == 0
    assert path.read_text() == out


def test_verify_stdout_is_byte_stable(capsys):
    argv = ("verify", "--suite", "threshold", "--max-det", "4", "--max-n", "2")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_verify_failures_exit_3(capsys, monkeypatch):
    monkeypatch.setattr(
        cli,
        "verify_all",
        lambda budget: {"budget": {}, "suites": {}, "pass": False},
    )
    code, out, _ = run_cli(capsys, "verify")
    assert code == 3
    assert json.loads(out)["pass"] is False


def test_verify_rejects_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--suite", "everything"])
    assert exc.value.code == 2


# -- module entry point ----------------------------------------------------------


def test_module_invocation_round_trip():
    proc = subprocess.run(
        [sys.executable, "-m", "dualgraph.cli", "twig", "adjoint", "[2,2]"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"adjoint": "[3]"}


def test_an_adjoint_over_the_cap_is_refused_at_once():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dualgraph.cli", "twig", "adjoint", "[10000002]"],
        capture_output=True,
        text=True,
    )
    assert time.perf_counter() - start < 2
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: twig has 10000001 entries, more than 10000000\n"
