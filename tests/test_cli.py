"""CLI: output shapes, exit codes, stdin plumbing, byte determinism."""

import hashlib
import io
import json
import os
import subprocess
import sys
import time

import pytest

import dualgraph.cli as cli
from dualgraph import canonical, dgn, graphs
from dualgraph.dgn import parse_dgn, serialize_dgn
from dualgraph.errors import InternalDefect
from dualgraph.families import FamilyInstance, build_family
from dualgraph.graphs import DualGraph


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
    assert doc_of(capsys, "twig", "from-e", " 3/5 ") == {"twig": "[2,3]"}


def test_twig_parse_error_is_exit_2(capsys):
    code, out, err = run_cli(capsys, "twig", "det", "2,3")
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("value", ["2/ 3", "2 /3", "2_0/3"])
def test_twig_from_e_refuses_inner_spaces_and_underscores(capsys, value):
    # Fraction reads these on some interpreters and refuses them on others
    code, out, err = run_cli(capsys, "twig", "from-e", value)
    assert (code, out) == (2, "")
    literal = f"Invalid literal for Fraction: {value!r}"
    assert err == f"error: line 1: invalid rational {value!r}: {literal}\n"


def test_twig_from_e_domain_error_is_exit_1(capsys):
    code, _, err = run_cli(capsys, "twig", "from-e", "7/5")
    assert code == 1
    assert "error:" in err


_DIGITS = "1" * 5000  # past the interpreter's limit of 4,300 digits
_digit_limit = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this interpreter converts integers of any length",
)


_BIG = 10**19  # past sys.maxsize, the longest run a range of ids can hold


@_digit_limit
@pytest.mark.parametrize(
    "argv, want, message",
    [
        # input that cannot be read: a parse error
        (["twig", "det", f"[{_DIGITS}]"], 2, "line 1: bad twig entry: {limit}"),
        (["twig", "adjoint", f"[3,{_DIGITS}]"], 2, "line 1: bad twig entry: {limit}"),
        (
            ["twig", "inductance", f"[{_DIGITS}*2]"],
            2,
            "line 1: bad twig entry: {limit}",
        ),
        (
            ["family", "build", f'{{"family": 3, "A": [2], "n": 2, "l": {_DIGITS}}}'],
            2,
            "line 1: invalid spec JSON: an integer has {limit}",
        ),
        # a result too long to print: a domain error
        (["twig", "from-e", "1e-5000"], 1, "result too long to print: {limit}"),
        (["twig", "det", "[1200*99999]"], 1, "result too long to print: {limit}"),
        (
            ["twig", "inductance", "[1200*99999]"],
            1,
            "result too long to print: {limit}",
        ),
        # a run length no range can hold: a domain error, strict or not
        (
            ["family", "build",
             f'{{"family": 7, "A": [2], "n": 2, "b": [3], "m": {_BIG}}}'],
            1,
            f"m <= {sys.maxsize} violated",
        ),
        (
            ["family", "build", f'{{"family": 3, "A": [2], "n": 2, "l": {_BIG}}}',
             "--allow-noncontractible"],
            1,
            f"l <= {sys.maxsize} violated",
        ),
        (
            ["family", "ktype", f'{{"family": 3, "A": [2], "n": 2, "l": {_BIG}}}'],
            1,
            f"l <= {sys.maxsize} violated",
        ),
    ],
    ids=[
        "det entry", "adjoint entry", "inductance count", "family spec",
        "from-e result", "det result", "inductance result",
        "family m past maxsize", "family l past maxsize",
        "family l past maxsize, strict",
    ],
)
def test_an_integer_too_long_for_text_is_one_error_line(capsys, argv, want, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == want and out == ""
    # our wording of the interpreter's limit, the same under every version
    limit = f"more than {sys.get_int_max_str_digits()} digits"
    assert err == f"error: {message.format(limit=limit)}\n"


@_digit_limit
def test_a_contracted_weight_too_long_for_text_is_exit_1(capsys, monkeypatch):
    # 4,300 nines still parse; the blow-down makes the weight 10**4300
    nines = "9" * 4300
    dgn = f"v 1 {nines}\nv 2 -1\nv 3 -5\ne 1 2\ne 2 3\n"
    monkeypatch.setattr(sys, "stdin", io.StringIO(dgn))
    code, out, err = run_cli(capsys, "graph", "contract", "-")
    assert code == 1 and out == ""
    limit = sys.get_int_max_str_digits()
    assert err == f"error: result too long to print: more than {limit} digits\n"


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


def test_graph_ktype_reads_a_long_run_in_its_compressed_size(capsys, tmp_path, monkeypatch):
    """The DGN text of family (3) at l = 10**5 (101,003 vertices) is read in
    blocks: the parsed graph holds its compact form before any query, and
    every compression of the call took a few dozen links, not one per edge.
    The time bound is about 4x this call's time on a 2-core machine."""
    path = tmp_path / "f3.dgn"
    path.write_text(family_dgn(family=3, A=(1000,), n=2, l=10**5))
    links = []
    for module in (dgn, graphs):
        def counted(nodes, given, real=module._normalize):
            links.append(len(given))
            return real(nodes, given)
        monkeypatch.setattr(module, "_normalize", counted)
    held = []
    def parse(text, real=cli.parse_dgn):
        g = real(text)
        held.append(g._core is not None)
        return g
    monkeypatch.setattr(cli, "parse_dgn", parse)
    start = time.perf_counter()
    code = cli.main(["graph", "ktype", str(path)])
    elapsed = time.perf_counter() - start
    assert code == 0 and json.loads(capsys.readouterr().out)["ktype"] == "canonical-ample"
    assert held == [True]
    assert links and sum(links) <= 36, links
    assert elapsed < 0.6


def test_a_library_defect_is_exit_4(capsys, tmp_path, monkeypatch):
    def broken(gD):
        raise InternalDefect("adjunction solve produced negative coefficient at 2")

    monkeypatch.setattr(canonical, "_run_pieces", broken)
    path = tmp_path / "g.dgn"
    path.write_text(family_dgn(family=3, A=(2,), n=3, l=7))
    code, out, err = run_cli(capsys, "graph", "ktype", str(path))
    assert code == 4 and out == ""
    assert err == (
        "error: library defect: adjunction solve produced negative coefficient at 2\n"
    )


@pytest.mark.parametrize(
    "dgn, bad",
    [
        ("v 1 -1 C\nv 2 -4\nv 3 -4\ne 1 2\ne 1 3\n", 2),
        (
            "v 1 -3\nv 2 -3\nv 3 -2\nv 4 -3\nv 5 -1 C\n"
            "e 1 2\ne 1 3\ne 2 3\ne 3 4\ne 4 5\n",
            1,
        ),
    ],
    ids=["tree", "triangle"],
)
def test_a_fractional_pairing_of_1_off_a_boundary_is_exit_1(capsys, monkeypatch, dgn, bad):
    # C pairs to exactly 1 against a fractional solve, on a graph with
    # d(g) = 8: no boundary, so out of scope rather than a library defect
    monkeypatch.setattr("sys.stdin", io.StringIO(dgn))
    code, out, err = run_cli(capsys, "graph", "ktype", "-")
    assert code == 1 and out == ""
    assert err == (
        f"error: pairing is 1 but coefficient at {bad} is not an integer; "
        "d(g) is 8, not -1\n"
    )


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
    # the parser is built once per process and keeps no flag between calls
    assert run_cli(capsys, "family", "build", spec)[0] == 1
    assert cli._build_parser() is cli._build_parser()


def test_family_build_writes_the_compact_form_without_expanding_it(capsys, monkeypatch):
    def refused(self, *part):
        raise AssertionError("a run was expanded")

    monkeypatch.setattr(DualGraph, "_expand", refused)
    fields = {"family": 5, "A": [101], "n": 2, "l": 10**4, "b": [3], "m": 10**4}
    g = build_family(FamilyInstance(**fields))
    text = serialize_dgn(g)
    assert doc_of(capsys, "family", "build", json.dumps(fields)) == {"graph": text}
    assert text.count("\n") == 2 * len(g) - 1  # a tree: its v and e lines
    assert parse_dgn(text) == g


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


def test_queries_of_parsed_family_texts_are_pinned(capsys, tmp_path):
    """graph ktype/shape/det/contract and family classify on family (3)-(5)
    texts as family build writes them, and on copies with their v lines in
    descending id order: one digest of every exit code and stdout."""
    specs = [
        dict(family=3, A=(1000,), n=2, l=1000),
        dict(family=3, A=(2,), n=3, l=7),
        dict(family=4, A=(3, 2), n=3, l=40, b=(3,)),
        dict(family=5, A=(7,), n=2, l=500, b=(3,), m=1),
    ]
    h = hashlib.sha256()
    for kw in specs:
        lines = family_dgn(**kw).splitlines(True)
        vs = [line for line in lines if line.startswith("v")]
        for text in ("".join(lines), "".join(vs[::-1] + lines[len(vs):])):
            path = tmp_path / "g.dgn"
            path.write_text(text)
            for argv in (
                *(["graph", cmd, str(path)] for cmd in ("ktype", "shape", "det", "contract")),
                ["family", "classify", str(path)],
            ):
                code, out, _ = run_cli(capsys, *argv)
                h.update(f"{code}\n{out}".encode())
    assert h.hexdigest() == (
        "b771bbde1cc2944fe2eab2eea67eb65b8eb9994aaebc0ac633ba4ecebf91e94f"
    )


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


def test_verify_unwritable_json_path_is_exit_2_before_any_suite(
    capsys, monkeypatch, tmp_path
):
    def refuse(budget):
        raise AssertionError("a suite ran before the report path was opened")

    monkeypatch.setattr(cli, "verify_all", refuse)
    path = tmp_path / "missing" / "report.json"
    code, out, err = run_cli(capsys, "verify", "--json", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: line 0: cannot write {path}: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("option", ["--max-det", "--max-len", "--max-n", "--max-m"])
def test_verify_negative_budget_cap_is_exit_2_before_the_report_file(
    capsys, monkeypatch, tmp_path, option
):
    def refuse(*args):
        raise AssertionError("a suite ran with a negative cap")

    monkeypatch.setattr(cli, "verify_all", refuse)
    monkeypatch.setattr(cli, "verify_suite", refuse)
    path = tmp_path / "report.json"
    for suite in ("all", "contraction"):
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, option, "-1", "--json", str(path)
        )
        assert (code, out) == (2, "")
        assert err == f"error: line 0: {option} must be >= 0, got -1\n"
        assert not path.exists()


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


@pytest.mark.parametrize("source", ["file", "stdin", "closed stdin"])
def test_unreadable_input_is_one_error_line(source, tmp_path):
    # non-UTF-8 bytes in a file or on stdin, or no stdin at all (`<&-`)
    path = tmp_path / "g.dgn"
    path.write_bytes(b"v 1 -2\n\xff\xfe\n")
    arg = str(path) if source == "file" else "-"
    with open(path, "rb") as stdin:
        proc = subprocess.run(
            [sys.executable, "-m", "dualgraph.cli", "graph", "det", arg],
            stdin=stdin,
            capture_output=True,
            preexec_fn=(lambda: os.close(0)) if source == "closed stdin" else None,
        )
    name = str(path) if source == "file" else "stdin"
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.startswith(f"error: line 0: cannot read {name}: ".encode())
    assert proc.stderr.count(b"\n") == 1


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


def test_a_run_of_twos_over_the_cap_is_refused_at_once():
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "dualgraph.cli", "twig", "from-e", "999999999/1000000000"],
        capture_output=True,
        text=True,
    )
    assert time.perf_counter() - start < 1
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr == "error: twig would have more than 10000000 entries\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["twig", "adjoint", "[3]"],  # fits the buffer: fails at the last flush
        ["twig", "adjoint", "[20000]"],  # 40 kB: fails inside print
        ["verify", "--suite", "fujita", "--max-len", "3"],
    ],
)
def test_a_closed_stdout_exits_141_without_a_traceback(argv):
    # `dualgraph ... | head -0`: the reading end is closed before anything
    # is written, so every write to stdout fails with EPIPE
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dualgraph.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == ""
