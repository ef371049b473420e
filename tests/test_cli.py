import importlib
import json
import os
import subprocess
import sys

import pytest

import stringcoh
from conftest import CORPUS_SIZE, a_n_text
from stringcoh import (
    ApConstructionError,
    CertificateError,
    CochainComplex,
    Resolution,
    basis_P,
    checks,
    parse,
)
from stringcoh import cli, resolution
from stringcoh.cli import main
from stringcoh.cup import cohomology_basis, comparison_terms, lift_terms
from stringcoh.generate import generate, generate_dsl
from stringcoh.linalg import RationalMatrix

cup_module = importlib.import_module("stringcoh.cup")


@pytest.fixture
def a_file(tmp_path):
    def write(n):
        path = tmp_path / f"two_lane_{n}.quiver"
        path.write_text(a_n_text(n))
        return str(path)

    return write


def test_validate_ok(a_file, capsys):
    assert main(["validate", a_file(3)]) == 0
    out = capsys.readouterr().out
    assert "S2: ok" in out


def test_validate_failure_exit_code_names_arrow(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertex 0 1 2\narrow a 0 1\narrow b 1 2\narrow c 1 2\n")
    assert main(["validate", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "S2: FAIL" in out and "a has surviving continuations" in out


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.quiver"
    bad.write_text("vertex 0 1\narrow a 0 1\nrelation a\n")
    assert main(["validate", str(bad)]) == 2
    assert "line 3" in capsys.readouterr().err


@pytest.fixture(params=["missing", "directory", "undecodable"])
def unreadable(request, tmp_path):
    """A FILE argument that cannot be read as UTF-8 text."""
    if request.param == "missing":
        return str(tmp_path / "absent.quiver")
    if request.param == "directory":
        return str(tmp_path)
    path = tmp_path / "bytes.quiver"
    path.write_bytes(b"\xff\xfe")
    return str(path)


@pytest.mark.parametrize("command", ["validate", "hh", "ap", "cup", "check"])
def test_unreadable_file_is_a_usage_error(command, unreadable, capsys):
    assert main([command, unreadable]) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"cannot read {unreadable}: ")
    assert len(line) > len(f"cannot read {unreadable}: ")
    assert "Traceback" not in captured.err and captured.out == ""


class _ClosedPipe:
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_output_error_is_not_a_read_error(a_file, monkeypatch):
    """An OSError writing the output names no FILE and is not reported
    as an unreadable one."""
    monkeypatch.setattr(sys, "stdout", _ClosedPipe())
    with pytest.raises(BrokenPipeError):
        main(["hh", a_file(3), "--json"])
    with pytest.raises(BrokenPipeError):
        main(["gen"])


def test_hh_line_two_parallel(a_file, capsys):
    assert main(["hh", a_file(1)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "HH: 1 3 0"


def test_hh_line_five_steps(a_file, capsys):
    assert main(["hh", a_file(5)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "HH: 1 5 0 0 0 2 0"


def test_hh_json_agrees(a_file, capsys):
    assert main(["hh", a_file(4), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["hh"]["dims"] == [1, 4, 0, 0, 0]
    assert payload["hh"]["agree"] is True
    assert all(row["agree"] for row in payload["hh"]["rows"])


def test_hh_methods(a_file, capsys):
    assert main(["hh", a_file(3), "--method", "formula"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "HH: 1 3 0 2 0"
    assert main(["hh", a_file(3), "--method", "matrix"]) == 0


def test_ap_listing(a_file, capsys):
    assert main(["ap", a_file(3)]) == 0
    out = capsys.readouterr().out
    assert "degree 2: 4 element(s)" in out
    assert "degree 3: 2 element(s)" in out
    assert "dual construction matches: True" in out


def test_ap_no_relations(a_file, capsys):
    assert main(["ap", a_file(1)]) == 0
    out = capsys.readouterr().out
    assert "degree 1: 2 element(s)" in out
    assert "degree 2" not in out


def test_ap_json_same_under_optimize(tmp_path, capsys):
    """``python -O`` strips asserts; the AP layer must compute the same
    sets, chains and verdict without them."""
    src = os.path.dirname(os.path.dirname(stringcoh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    for seed in (19, 77, 88):
        path = tmp_path / f"seed{seed}.quiver"
        path.write_text(generate_dsl(seed))
        assert main(["ap", str(path), "--json"]) == 0
        expected = json.loads(capsys.readouterr().out)
        run = subprocess.run(
            [sys.executable, "-O", "-m", "stringcoh", "ap", str(path), "--json"],
            capture_output=True, text=True, env=env, timeout=60,
        )
        assert run.returncode == 0, run.stderr
        got = json.loads(run.stdout)
        del expected["elapsed_ms"], got["elapsed_ms"]
        assert got == expected


_CHECK_EACH = """
import contextlib, io, json, sys
from stringcoh.cli import main
if __debug__:
    sys.exit("asserts are still on")
for path in sys.argv[1:]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(["check", path, "--json"])
    doc = json.loads(out.getvalue())
    del doc["elapsed_ms"]
    print(json.dumps({"code": code, "report": doc}, sort_keys=True))
"""


def test_check_json_same_under_optimize(tmp_path, capsys):
    """``python -O`` strips asserts; every certificate must give the same
    report without them.  One -O process checks the whole 100-seed
    corpus, including seed 88, where the displayed lift formula fails and
    products go through the interior terms of lift_terms."""
    src = os.path.dirname(os.path.dirname(stringcoh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    paths, expected = [], []
    for seed in range(CORPUS_SIZE):
        path = tmp_path / f"seed{seed}.quiver"
        path.write_text(generate_dsl(seed))
        code = main(["check", str(path), "--json"])
        doc = json.loads(capsys.readouterr().out)
        del doc["elapsed_ms"]
        paths.append(str(path))
        expected.append({"code": code, "report": doc})
    assert not {c["name"]: c["passed"] for c in
                expected[88]["report"]["properties"]["checks"]}["chain-maps"]
    assert lift_differs_from_formula(generate(88))
    run = subprocess.run(
        [sys.executable, "-O", "-c", _CHECK_EACH, *paths],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert run.returncode == 0, run.stderr
    got = [json.loads(line) for line in run.stdout.splitlines()]
    assert got == expected


def lift_differs_from_formula(pres) -> bool:
    """Whether lift_terms differs from comparison_terms on some generator
    for some cohomology representative."""
    cx = CochainComplex(Resolution(pres, basis_P(pres)))
    return any(
        lift_terms(cx, f, n, w) != comparison_terms(cx, f, n, w)
        for m in range(1, cx.top + 1) for f in cohomology_basis(cx, m)
        for n in range(1, cx.top - m + 1) for w in cx.res.ap[n + m])


def test_broken_lift_exits_3(tmp_path, monkeypatch, capsys):
    """A lift whose chain-map audit fails stops check with a failed
    certificate instead of certifying products on it."""
    monkeypatch.setattr(cup_module, "lift_terms", comparison_terms)
    path = tmp_path / "seed88.quiver"
    path.write_text(generate_dsl(88))
    assert main(["check", str(path), "--json"]) == 3
    assert "certificate failed: " in capsys.readouterr().err


def test_check_json_cup_section_shape(a_file, monkeypatch, capsys):
    """The cup section carries exactly these keys; so does each failure,
    here forced by refusing every coboundary."""
    assert main(["check", a_file(3), "--json"]) == 0
    cup = json.loads(capsys.readouterr().out)["cup"]
    assert set(cup) == {"all_zero", "pairs_checked", "positive_class_dims",
                        "odd_divisor_positions_max", "failures"}
    assert cup["failures"] == []
    monkeypatch.setattr(cup_module, "is_coboundary",
                        lambda cx, f: (False, None))
    assert main(["check", a_file(3), "--json"]) == 3
    cup = json.loads(capsys.readouterr().out)["cup"]
    assert not cup["all_zero"] and cup["failures"]
    assert all(set(e) == {"degrees", "representatives"}
               for e in cup["failures"])


def test_failed_certificate_exits_3(a_file, monkeypatch, capsys):
    def broken(cx):
        raise CertificateError("exactness guarantees a lift")

    monkeypatch.setattr(checks, "cup_table", broken)
    assert main(["check", a_file(3), "--json"]) == 3
    assert "certificate failed: exactness guarantees a lift" in capsys.readouterr().err


DUAL_WITNESSES = ["degree 2 a1*a2: forward run only",
                  "degree 3 b1*b2*b3: forward run only"]


def skew_mirrored_run(monkeypatch):
    """The mirrored run loses its lowest arrow word of degree 2 and its
    highest of degree 3: on a_n(3), a1*a2 and b1*b2*b3 (DUAL_WITNESSES)."""
    real = Resolution.op_ap_sets

    def skewed(self):
        layers = real(self)
        del layers[0][min(layers[0])]
        del layers[1][max(layers[1])]
        return layers

    monkeypatch.setattr(Resolution, "op_ap_sets", skewed)


def assert_names_dual_witnesses(argv, capsys):
    """argv exits 3 while building its tower, printing nothing on stdout
    and every duality witness on stderr."""
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert [line for line in captured.err.splitlines()
            if line.startswith("witness: ")] == [f"witness: {w}"
                                                 for w in DUAL_WITNESSES]


def test_ap_and_check_name_every_dual_witness(a_file, monkeypatch, capsys):
    skew_mirrored_run(monkeypatch)
    assert_names_dual_witnesses(["ap", a_file(3)], capsys)
    assert_names_dual_witnesses(["check", a_file(3), "--json"], capsys)
    with pytest.raises(ApConstructionError,
                       match="forward support with no mirrored chain") as err:
        checks.Auditor(parse(a_n_text(3)))
    assert err.value.witnesses == DUAL_WITNESSES


def test_hh_and_cup_name_every_dual_witness(a_file, monkeypatch, capsys):
    skew_mirrored_run(monkeypatch)
    assert_names_dual_witnesses(["hh", a_file(3)], capsys)
    assert_names_dual_witnesses(["cup", a_file(3), "--json"], capsys)


def test_other_ap_construction_errors_name_no_witness(a_file, monkeypatch,
                                                      capsys):
    """An ApConstructionError that is not a duality mismatch carries no
    witnesses, and main prints its one line as before."""
    real = resolution._greedy_chains

    def doubled(relations, cap):
        layers = real(relations, cap)
        support, chain = layers[-1][0]
        layers[-1].append((support, chain[::-1]))
        return layers

    monkeypatch.setattr(resolution, "_greedy_chains", doubled)
    with pytest.raises(ApConstructionError) as err:
        checks.Auditor(parse(a_n_text(3)))
    assert err.value.witnesses == []
    for command in ("ap", "hh", "cup", "check"):
        assert main([command, a_file(3)]) == 3
        assert capsys.readouterr().err == (
            "AP construction failed: one support, two different chains "
            "(support a1*a2*a3)\n")


def test_check_names_every_witness(monkeypatch):
    """Checks list every failing witness, not just the first: a doubled
    divisor on every element, and two cochain maps zeroed."""
    real = Resolution.sub
    monkeypatch.setattr(Resolution, "sub",
                        lambda self, w: real(self, w) + real(self, w)[:1])
    result = checks.Auditor(parse(a_n_text(3))).check_sub_cardinality()
    monkeypatch.undo()
    assert not result.passed
    witnesses = result.detail.split("; ")
    assert len(witnesses) == 6  # four elements of AP_2, two of AP_3
    assert witnesses[0] == "degree 2 support a1*a2 with 3 divisors"
    assert witnesses[-1] == "degree 3 support b1*b2*b3 with 3 divisors"

    auditor = checks.Auditor(parse(a_n_text(3)))
    real_matrix = auditor.cx.matrix
    zeroed = {n: RationalMatrix(real_matrix(n).rows, real_matrix(n).cols)
              for n in (1, 3)}
    monkeypatch.setattr(auditor.cx, "matrix",
                        lambda n: zeroed[n] if n in zeroed else real_matrix(n))
    result = auditor.check_cochain_vs_differential()
    assert (result.passed, result.detail) == (False, "degree 1; degree 3")


def test_ap_construction_error_exit_code(a_file, monkeypatch, capsys):
    real = Resolution._chain_run

    def no_mirror(self, cap, mirrored):
        return [] if mirrored else real(self, cap, mirrored)

    monkeypatch.setattr(Resolution, "_chain_run", no_mirror)
    assert main(["hh", a_file(3)]) == 3
    assert "forward support with no mirrored chain" in capsys.readouterr().err


def test_cup_three_steps(a_file, capsys):
    assert main(["cup", a_file(3)]) == 0
    assert "all cup products vanish (pairs checked: 25)" in capsys.readouterr().out


def test_cup_tree_vacuous(tmp_path, capsys):
    path = tmp_path / "tree.quiver"
    path.write_text("vertex 0 1 2\narrow a 0 1\narrow b 1 2\nrelation a b\n")
    assert main(["cup", str(path)]) == 0
    assert "no positive-degree classes" in capsys.readouterr().out


def test_check_all_pass(a_file, capsys):
    assert main(["check", a_file(3)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "cup-vanishing: ok" in out


def test_main_reuses_one_parser(a_file, capsys):
    """main builds its parser once per process.  A check, a bad argv, an
    hh and the same check again: the second check prints what the first
    did."""
    assert main(["check", a_file(3)]) == 0
    first = capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["check", a_file(3), "--no-such-flag"])
    assert main(["hh", a_file(3)]) == 0
    capsys.readouterr()
    assert main(["check", a_file(3)]) == 0
    assert capsys.readouterr().out == first
    assert cli._build_parser() is cli._build_parser()


def test_auditor_refuses_invalid_presentation():
    """The Auditor validates its presentation and refuses one that fails."""
    pres = parse("vertex 0 1 2 3\narrow a 0 1\narrow b 1 2\narrow c 2 3\n"
                 "relation a b\nrelation a b c\n")
    with pytest.raises(ValueError, match="fails validation"):
        checks.Auditor(pres)


def counting(monkeypatch, module, name):
    """Wrap module.name to count its calls; patched through sys.modules,
    since the package namespace can shadow a module with a function."""
    calls = []
    real = getattr(sys.modules[module], name)
    monkeypatch.setattr(sys.modules[module], name,
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    return calls


def test_check_validates_once(a_file, monkeypatch, capsys):
    calls = (counting(monkeypatch, "stringcoh.cli", "validate"),
             counting(monkeypatch, "stringcoh.checks", "validate"))
    assert main(["check", a_file(3), "--json"]) == 0
    assert [len(c) for c in calls] == [1, 0]


def test_auditor_without_report_validates(monkeypatch):
    calls = counting(monkeypatch, "stringcoh.checks", "validate")
    auditor = checks.Auditor(parse(a_n_text(3)))
    assert len(calls) == 1 and auditor.report.passed


def test_check_degenerate_degrees(a_file, capsys):
    assert main(["check", a_file(1)]) == 0


def test_check_stops_on_invalid_presentation(tmp_path, capsys):
    path = tmp_path / "nonminimal.quiver"
    path.write_text(
        "vertex 0 1 2 3\narrow a 0 1\narrow b 1 2\narrow c 2 3\n"
        "relation a b\nrelation a b c\n"
    )
    assert main(["check", str(path)]) == 1
    assert "minimal-generators" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "hh", "ap", "cup", "check"])
def test_presentation_without_vertices_fails_validation(tmp_path, capsys,
                                                        command):
    """An empty quiver is not connected: every command stops at
    validation instead of computing on it."""
    path = tmp_path / "empty.quiver"
    path.write_text("# no vertices\n")
    assert main([command, str(path)]) == 1
    captured = capsys.readouterr()
    assert "connected" in captured.out + captured.err
    assert "no vertices" in captured.out + captured.err


@pytest.mark.parametrize("argv, option, low", [
    (["hh", "--max-degree", "-1"], "--max-degree", 0),
    (["ap", "--max-degree", "-2"], "--max-degree", 0),
    (["gen", "--vertices", "1"], "--vertices", 2),
    (["gen", "--vertices", "0"], "--vertices", 2),
    (["gen", "--arrows", "0"], "--arrows", 1),
])
def test_out_of_range_options_are_usage_errors(a_file, capsys, argv, option,
                                               low):
    if argv[0] != "gen":
        argv = [argv[0], a_file(2)] + argv[1:]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {option}: must be at least {low}" in err
    assert "Traceback" not in err


def test_smallest_allowed_options_run(a_file, capsys):
    assert main(["hh", a_file(2), "--max-degree", "0"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "HH: 1"
    assert main(["ap", a_file(2), "--max-degree", "0"]) == 0
    assert "degree 1" not in capsys.readouterr().out
    assert main(["gen", "--vertices", "2"]) == 0
    assert capsys.readouterr().out.startswith("vertex 0 1\n")


def test_check_reports_formula_lift_gap(tmp_path, capsys):
    """A presentation with a long relation and a live interior diagonal
    class makes the literal lift formula fail its audit; the check
    command reports it and exits with the violation code."""
    path = tmp_path / "gap.quiver"
    path.write_text(generate_dsl(88))
    assert main(["check", str(path)]) == 3
    out = capsys.readouterr().out
    assert "chain-maps: FAIL" in out
    assert "cup-vanishing: ok" in out


def test_hh_max_degree_truncates_but_stays_exact(a_file, capsys):
    # uncapped: HH: 1 5 0 0 0 2 0
    assert main(["hh", a_file(5), "--max-degree", "1"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "HH: 1 5"
    assert main(["hh", a_file(5), "--max-degree", "4"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "HH: 1 5 0 0 0"


def run_json(capsys, *argv) -> dict:
    assert main([*argv, "--json"]) == 0
    return json.loads(capsys.readouterr().out)


def hh_line(capsys, *argv) -> list[str]:
    assert main(["hh", *argv]) == 0
    return capsys.readouterr().out.splitlines()[0].split()


CAP_INPUTS = {**{f"a_n({n})": a_n_text(n) for n in range(1, 9)},
              **{f"generate({s})": generate_dsl(s) for s in range(20)}}


@pytest.mark.parametrize("name", CAP_INPUTS)
def test_max_degree_reports_the_uncapped_prefix(tmp_path, capsys, name):
    """At every cap N up to one past the top, hh and ap report exactly the
    uncapped output of degrees <= N, and the hh line ends in the 0 that
    stands for every degree above the top only when N reaches the top."""
    path = tmp_path / "input.quiver"
    path.write_text(CAP_INPUTS[name])
    path = str(path)
    full = run_json(capsys, "hh", path)
    top = full["ap"]["top"]
    line = hh_line(capsys, path)
    assert line == ["HH:"] + [str(d) for d in full["hh"]["dims"]] + ["0"]
    for n in range(top + 2):
        cap = ["--max-degree", str(n)]
        hh = run_json(capsys, "hh", path, *cap)
        ap = run_json(capsys, "ap", path, *cap)
        assert hh["hh"]["rows"] == full["hh"]["rows"][: n + 1], n
        assert (hh["ap"]["counts"] == ap["ap"]["counts"]
                == full["ap"]["counts"][: n + 1]), n
        assert hh["ap"]["top"] == ap["ap"]["top"] == min(top, n + 1), n
        assert hh_line(capsys, path, *cap) == (
            line[: n + 2] if n < top else line), n


def test_ap_max_degree(a_file, capsys):
    assert main(["ap", a_file(5), "--max-degree", "2"]) == 0
    out = capsys.readouterr().out
    assert "degree 2: 8 element(s)" in out
    assert "degree 3" not in out


def test_gen_roundtrip(tmp_path, capsys):
    assert main(["gen", "--seed", "5"]) == 0
    text = capsys.readouterr().out
    path = tmp_path / "gen.quiver"
    path.write_text(text)
    assert main(["validate", str(path)]) == 0


def test_gen_deterministic(capsys):
    assert main(["gen", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first


def test_json_deterministic_modulo_timing(a_file, capsys):
    assert main(["hh", a_file(2), "--json"]) == 0
    one = json.loads(capsys.readouterr().out)
    assert main(["hh", a_file(2), "--json"]) == 0
    two = json.loads(capsys.readouterr().out)
    one.pop("elapsed_ms")
    two.pop("elapsed_ms")
    assert one == two


def test_json_roundtrip(a_file, capsys):
    assert main(["check", a_file(2), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert json.loads(json.dumps(payload)) == payload
    assert set(payload) >= {"presentation", "validation", "ap", "hh", "cup",
                            "properties"}
