"""Exactness on the one-sided complexes P (x)_A S_x and d o d = 0 on
generators, against the realized bimodule complex as an oracle
(docs/one-sided-exactness.md)."""

import json
import os
import subprocess
import sys

import pytest

import stringcoh
from conftest import a_n_text
from stringcoh import CertificateError, Resolution, basis_P, parse
from stringcoh.checks import Auditor
from stringcoh.cli import main
from stringcoh.generate import generate_dsl
from stringcoh.linalg import RationalMatrix
from tests_support import (global_d_squared_is_zero, global_homology_dims,
                           one_sided_by_full_path)


def fresh(text):
    pres = parse(text)
    return Resolution(pres, basis_P(pres))


def towers(corpus):
    """generate(0..99), the 13 check-generated inputs and a_n(1..12)."""
    out = [(f"seed {seed}", res) for seed, _, _, res, _ in corpus]
    out += [(f"generated {s}", fresh(generate_dsl(
        s, max_vertices=24, max_arrows=48))) for s in range(13)]
    out += [(f"a_n({n})", fresh(a_n_text(n))) for n in range(1, 13)]
    return out


def test_one_sided_verdicts_match_the_oracle(corpus):
    """The same exactness and d o d = 0 verdicts as the realized bimodule
    complex on every input of towers; all are exact, so the per-spot
    lists agree too."""
    for name, res in towers(corpus):
        dims, oracle = res.homology_dims(), global_homology_dims(res)
        assert any(dims) == any(oracle), name
        if not any(dims):
            assert dims == oracle, name
        assert res.d_squared_is_zero() == global_d_squared_is_zero(res), name
        assert res.d_squared_is_zero(), name


def test_one_sided_matches_the_per_full_path_ranking(corpus):
    """The one elimination per degree gives the same per-vertex dimension
    and rank as ranking every full path on its own, in every degree of
    every input of towers."""
    for name, res in towers(corpus):
        for n in res.degrees():
            assert res._one_sided(n) == one_sided_by_full_path(res, n), (
                name, n)


def zeroed_degree_two_image():
    """An auditor on generate_dsl(7, 24, 48) with the image of one
    degree-2 generator set to zero, chosen so that d o d stays 0."""
    pres = parse(generate_dsl(7, max_vertices=24, max_arrows=48))
    for w in Auditor(pres).res.ap[2]:
        auditor = Auditor(pres)
        auditor.res.differential(2)[w.pos] = {}
        if auditor.res.d_squared_is_zero():
            return auditor
    pytest.fail("no degree-2 generator keeps d o d = 0 when zeroed")


def test_zeroed_image_turns_both_exactness_checks_red():
    auditor = zeroed_degree_two_image()
    res = auditor.res
    assert global_d_squared_is_zero(res)
    assert any(res.homology_dims())
    assert any(global_homology_dims(res))
    result = auditor.check_exactness()
    assert not result.passed
    labels = res.quiver.vertex_labels
    witnesses = [f"degree {n} vertex {labels[x]}: {h}"
                 for n, by_x in enumerate(res.homology_by_vertex())
                 for x, h in sorted(by_x.items()) if h]
    assert len(witnesses) >= 2
    assert result.detail == "; ".join(
        [f"homology {res.homology_dims()}"] + witnesses)


def test_exact_detail_lists_no_witness(a_n):
    pres = a_n[3][0]
    assert Auditor(pres).check_exactness().detail == "homology [0, 0, 0, 0, 0]"


@pytest.mark.parametrize("text", [
    a_n_text(4), generate_dsl(7, max_vertices=24, max_arrows=48)])
def test_sign_flip_turns_both_d_squared_checks_red(text):
    """Flipping the sign of one differential term breaks d o d = 0 in
    every degree tried, on generators and on the realized matrices.  It
    need not break exactness, so exactness is not asserted here."""
    top = fresh(text).top
    for n in range(1, top + 1):
        res = fresh(text)
        image = res.differential(n)[res.ap[n][0].pos]
        key = next(iter(image))
        image[key] = -image[key]
        assert not res.d_squared_is_zero(), n
        assert not global_d_squared_is_zero(res), n


def test_repeated_columns_of_one_block_are_ranked(monkeypatch):
    """Every block of one full path holds a single column on the inputs
    that occur.  Listing each degree-2 element twice doubles every block
    there, and the one elimination of the degree ranks the doubled
    blocks: the dimensions double and the ranks stay."""
    res = fresh(a_n_text(4))
    expected = {x: (2 * d, r) for x, (d, r) in res._one_sided(2).items()}
    res.ap[2] = res.ap[2] + res.ap[2]
    calls = []
    real = RationalMatrix.echelon
    monkeypatch.setattr(RationalMatrix, "echelon",
                        lambda self: calls.append(1) or real(self))
    assert res._one_sided(2) == expected
    assert calls == [1]


def no_bimodule_basis(self, n):
    raise AssertionError("the bimodule basis was built")


def test_check_builds_no_bimodule_basis(tmp_path, monkeypatch, capsys):
    """Also on generate_dsl(88), where the displayed lift formula fails
    and check exits 3 on chain-maps alone."""
    monkeypatch.setattr(Resolution, "bimodule_space", no_bimodule_basis)
    path = tmp_path / "a7.quiver"
    path.write_text(a_n_text(7))
    assert main(["check", str(path), "--json"]) == 0
    capsys.readouterr()
    path = tmp_path / "seed88.quiver"
    path.write_text(generate_dsl(88))
    assert main(["check", str(path), "--json"]) == 3
    doc = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in doc["properties"]["checks"]
            if not c["passed"]] == ["chain-maps"]
    auditor = Auditor(parse(a_n_text(20)))
    assert auditor.check_d_squared().passed
    assert auditor.check_exactness().passed
    assert auditor.check_euler().passed


def three_divisors(real):
    def sub(self, w):
        out = real(self, w)
        return out + out[:1]
    return sub


def test_odd_degree_with_three_divisors_raises(monkeypatch):
    res = fresh(a_n_text(3))
    monkeypatch.setattr(Resolution, "sub", three_divisors(Resolution.sub))
    with pytest.raises(CertificateError, match="two flush divisors"):
        res.differential(3)


def test_sub_without_two_flush_divisors_raises(monkeypatch):
    """sub finds its divisors through occurrences_in; doubling every hit
    leaves an odd-degree element with four."""
    res = fresh(a_n_text(3))
    real = Resolution.occurrences_in
    monkeypatch.setattr(Resolution, "occurrences_in",
                        lambda self, *args: real(self, *args) * 2)
    with pytest.raises(CertificateError, match="two flush divisors"):
        res.sub(res.ap[3][0])


_THREE_DIVISORS = """
import sys
from stringcoh import CertificateError, Resolution, basis_P, parse
if __debug__:
    sys.exit("asserts are still on")
text = sys.stdin.read()
pres = parse(text)
real = Resolution.sub
Resolution.sub = lambda self, w: real(self, w) + real(self, w)[:1]
try:
    Resolution(pres, basis_P(pres)).differential(3)
except CertificateError as exc:
    print(exc)
"""


_DOUBLED_HITS = """
import sys
from stringcoh import CertificateError, Resolution, basis_P, parse
if __debug__:
    sys.exit("asserts are still on")
text = sys.stdin.read()
pres = parse(text)
real = Resolution.occurrences_in
Resolution.occurrences_in = lambda self, *args: real(self, *args) * 2
res = Resolution(pres, basis_P(pres))
try:
    res.sub(res.ap[3][0])
except CertificateError as exc:
    print(exc)
"""


def run_optimized(script, text):
    src = os.path.dirname(os.path.dirname(stringcoh.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, "-O", "-c", script], input=text,
        capture_output=True, text=True, env=env, timeout=60)


def test_three_divisors_raise_under_optimize():
    run = run_optimized(_THREE_DIVISORS, a_n_text(3))
    assert run.returncode == 0, run.stderr
    assert "two flush divisors" in run.stdout


def test_doubled_divisor_hits_raise_under_optimize():
    run = run_optimized(_DOUBLED_HITS, a_n_text(3))
    assert run.returncode == 0, run.stderr
    assert "two flush divisors" in run.stdout
