import json
from itertools import product

import pytest

from conftest import a_n_text, build_tower
from stringcoh import CochainComplex, Resolution, basis_P, parse
from stringcoh.cli import main
from stringcoh.cup import leibniz_slots, lift_tails, splittings
from stringcoh.generate import generate
from stringcoh.hochschild import _KINDS
from tests_support import (ap_label, arrow_path, basis_id, basis_path,
                           entry, fmt, path_class_counts, path_label,
                           path_pairs, support, trivial_path)


def tower(text):
    pres = parse(text)
    basis = basis_P(pres)
    res = Resolution(pres, basis)
    return pres, basis, res, CochainComplex(res)


def pair_labels(cx, n):
    return {
        (ap_label(cx.res, p.rho),
         fmt(cx.res.pres, basis_path(cx.basis, p.gamma_id))): p.label
        for p in cx.pairs(n)
    }


def test_pairs_two_parallel_arrows_degree_one(a_n):
    pres, basis, res, cx = a_n[1]
    got = {(ap_label(res, p.rho),
            fmt(pres, basis_path(basis, p.gamma_id)))
           for p in cx.pairs(1)}
    assert got == {("a1", "a1"), ("a1", "b1"), ("b1", "a1"), ("b1", "b1")}


def test_pairs_degree_zero_is_diagonal(corpus):
    for _, pres, basis, _, cx in corpus[:20]:
        pairs = cx.pairs(0)
        assert len(pairs) == pres.quiver.num_vertices
        assert all(basis_path(basis, p.gamma_id)
                   == support(pres.quiver, p.rho)
                   for p in pairs)


def test_degree_zero_pairs_are_unclassified(a_n):
    """The partition starts in degree 1: a degree-0 pair carries no flag
    and no label."""
    pairs = a_n[3][3].pairs(0)
    assert pairs and all(
        p.degree == 0 and p.gamma_id == p.rho.pos and
        (p.shares_first, p.shares_last, p.left_dead, p.right_dead,
         p.inner_dead, p.class_label, p.label) == (None,) * 7
        for p in pairs)


def test_bad_degree_arguments_raise_value_error(a_n):
    cx = a_n[3][3]
    for n in (0, -1):
        with pytest.raises(ValueError, match="start in degree 1"):
            cx.matrix(n)
    for n in (1, cx.top + 2):
        with pytest.raises(ValueError, match="runs in degrees 2..4"):
            cx.ker_im_audit(n)
    for n in (0, -1):
        with pytest.raises(ValueError, match="start in degree 1"):
            cx.res.differential(n)
    # the lift tables of a_n(3), top 3: each of these once raised
    # IndexError from the AP sets
    lift_range = r"take n >= 0, m >= 1 and n \+ m <= 3"
    for n, m in ((2, 3), (-1, 1), (0, 0), (3, 1), (1, 3)):
        with pytest.raises(ValueError, match=lift_range):
            splittings(cx, n, m)
        with pytest.raises(ValueError, match=lift_range):
            lift_tails(cx, n, m)
    for n in (3, 4, -1):
        with pytest.raises(ValueError, match=r"run in degrees 0\.\.2"):
            leibniz_slots(cx, n)
    # the edges of the valid ranges are fine
    assert len(splittings(cx, 0, 3)) == len(splittings(cx, 2, 1)) == 2
    assert lift_tails(cx, 2, 1) and len(leibniz_slots(cx, 2)) == 2


def test_pairs_top_degree_count(a_n):
    pres, basis, res, cx = a_n[3]
    assert len(cx.pairs(3)) == 4


def test_pairs_match_the_path_oracle(corpus):
    """Every pair of every degree carries the flags and both labels that
    the Path-level classification gives it, pair_keys reads the same ids,
    and class_counts tallies what the oracle counts, on generate(0..99),
    generate_dsl(0..12, 24, 48), a_n(1..12) and
    generate_dsl(0|2, max_vertices=120, max_arrows=240)."""
    towers = [cx for _, _, _, _, cx in corpus]
    towers += [build_tower(generate(s, max_vertices=24, max_arrows=48))[2]
               for s in range(13)]
    towers += [build_tower(parse(a_n_text(n)))[2] for n in range(1, 13)]
    towers += [build_tower(generate(s, max_vertices=120, max_arrows=240))[2]
               for s in (0, 2)]
    seen = 0
    for cx in towers:
        for n in range(cx.top + 2):
            want = path_pairs(cx, n)
            assert [(p.rho, basis_path(cx.basis, p.gamma_id), p.gamma_id,
                     p.shares_first,
                     p.shares_last, p.left_dead, p.right_dead, p.inner_dead,
                     p.class_label, p.label) for p in cx.pairs(n)] == want, n
            assert cx.pair_keys(n) == [(w[0].pos, w[2]) for w in want], n
            assert cx.class_counts(n) == path_class_counts(cx, n), n
            seen += len(want)
    assert seen == 3858


def test_kinds_match_the_label_oracle():
    """Every row of _KINDS, for all 16 side tuples (left, right, inner
    left, inner right decoration) and all 4 ways of sharing end arrows,
    holds the five flags, the class and the label that
    tests_support.path_label spells out case by case.  The inner flag is
    the inner decoration of the dead side opposite the one shared arrow,
    None elsewhere."""
    assert sorted(_KINDS) == sorted(product((False, True), repeat=4))
    for sides, kinds in _KINDS.items():
        left, right, inner_left, inner_right = sides
        assert len(kinds) == 4
        for first, last in product((False, True), repeat=2):
            inner = None
            if first and not last and right:
                inner = inner_right
            if last and not first and left:
                inner = inner_left
            flags = (first, last, left, right, inner)
            assert kinds[2 * first + last] == flags + (
                f"({int(first)},{int(last)})", path_label(*flags)), (
                sides, first, last)


def test_classify_fully_dead_off_diagonal(a_n):
    pres, basis, res, cx = a_n[3]
    labels = pair_labels(cx, 3)
    assert labels[("a1*a2*a3", "b1*a2*b3")] == "-(0,0)-"
    assert labels[("a1*a2*a3", "a1*b2*a3")] == "(1,1)"


def test_classify_degree_one_parallel(a_n):
    pres, basis, res, cx = a_n[1]
    labels = pair_labels(cx, 1)
    assert labels[("a1", "b1")] == "-(0,0)-"
    assert labels[("a1", "a1")] == "(1,1)"


def test_classify_degree_two(a_n):
    pres, basis, res, cx = a_n[3]
    labels = pair_labels(cx, 2)
    assert labels[("a1*a2", "a1*b2")] == "(1,0)+"
    assert labels[("a1*a2", "b1*a2")] == "--(0,1)"
    assert labels[("a2*a3", "a2*b3")] == "(1,0)--"
    assert labels[("a2*a3", "b2*a3")] == "+(0,1)"


def test_matrix_empty_when_no_degree_two(a_n):
    pres, basis, res, cx = a_n[1]
    m = cx.matrix(2)
    assert (m.rows, m.cols) == (0, 4)
    assert cx.nullity(2) == 4


def test_matrix_single_entry_column(a_n):
    pres, basis, res, cx = a_n[3]
    m = cx.matrix(2)
    a1, b1 = arrow_path(pres.quiver, 0), arrow_path(pres.quiver, 1)
    col = cx.pair_index(1)[(res.positions(1)[a1.arrows], basis_id(basis, b1))]
    entries = [(i, v) for i, j, v in m.items() if j == col]
    assert len(entries) == 1
    ((i, v),) = entries
    row_pair = cx.pairs(2)[i]
    assert v == 1
    assert ap_label(res, row_pair.rho) == "a1*a2"
    assert fmt(pres, basis_path(basis, row_pair.gamma_id)) == "b1*a2"


def test_matrix_degree_one_single_arrow():
    pres, basis, res, cx = tower("vertex 0 1\narrow a 0 1")
    m = cx.matrix(1)
    q = pres.quiver

    def key(n, sup):
        pos = res.positions(n)[sup.arrows] if n else sup.source
        return (pos, basis_id(basis, sup))

    row = cx.pair_index(1)[key(1, arrow_path(q, 0))]
    col0 = cx.pair_index(0)[key(0, trivial_path(q, 0))]
    col1 = cx.pair_index(0)[key(0, trivial_path(q, 1))]
    assert entry(m, row, col0) == -1
    assert entry(m, row, col1) == 1


def test_dims_two_parallel_arrows(a_n):
    assert a_n[1][3].hh_matrix() == [1, 3]


def test_dims_four_steps(a_n):
    assert a_n[4][3].hh_matrix() == [1, 4, 0, 0, 0]


def test_dims_three_steps_both_ways(a_n):
    cx = a_n[3][3]
    assert cx.hh_matrix() == [1, 3, 0, 2]
    assert cx.hh_formula() == [1, 3, 0, 2]


def test_formula_counts_degree_one(a_n):
    pres, basis, res, cx = a_n[1]
    counts = cx.class_counts(1)
    assert counts["-(0,0)-"] == 2
    assert pres.quiver.num_arrows + counts["-(0,0)-"] - pres.quiver.num_vertices + 1 == 3


def test_formula_counts_top_degree(a_n):
    pres, basis, res, cx = a_n[3]
    counts = cx.class_counts(3)
    assert counts["-(0,0)-"] == 2
    assert counts["+-(0,1)"] == 0


def test_audit_three_steps_degree_two(a_n):
    pres, basis, res, cx = a_n[3]
    audit = cx.ker_im_audit(2)
    assert all(c.passed for c in audit)
    assert cx.nullity(2) == 6 and cx.rank(2) == 6


def test_audit_counts_when_target_empty(a_n):
    pres, basis, res, cx = a_n[1]
    audit = cx.ker_im_audit(2)
    assert all(c.passed for c in audit)
    counts = cx.class_counts(1)
    assert cx.nullity(2) == counts["-(0,0)-"] + counts["(1,1)"] == 4


def test_audit_all_degrees(corpus):
    for _, _, _, res, cx in corpus:
        for n in range(2, res.top + 2):
            assert all(c.passed for c in cx.ker_im_audit(n))


def test_every_verdict_is_one_check_result(a_n):
    """Validation, the kernel/image audit and the Auditor's checks all
    return the one verdict record."""
    from stringcoh.checks import Auditor
    from stringcoh.presentation import CheckResult, validate

    pres, _, _, cx = a_n[3]
    verdicts = (validate(pres).checks + cx.ker_im_audit(2)
                + Auditor(pres).run_all())
    assert {type(v) for v in verdicts} == {CheckResult}
    assert [c.name for c in cx.ker_im_audit(2)] == [
        "kernel-count", "image-count", "left-extension-bijection",
        "right-extension-bijection", "shared-image-bijection",
        "phi-count", "psi-count"]


def test_cochain_maps_square_to_zero(corpus):
    for _, _, _, res, cx in corpus[:30]:
        for n in range(1, res.top + 1):
            assert (cx.matrix(n + 1) @ cx.matrix(n)).is_zero()


def test_matrix_equals_dualized_differential(corpus):
    """Two constructions of the same map: the explicit cochain formulas
    and applying a basis cochain through the resolution differential."""
    from stringcoh.checks import Auditor

    for _, pres, _, _, _ in corpus[:20]:
        auditor = Auditor(pres)
        assert auditor.check_cochain_vs_differential().passed


def test_table_structure(a_n):
    table = a_n[3][3].hh_table()
    assert table.agree
    assert [r.degree for r in table.rows] == [0, 1, 2, 3]
    assert table.dims_matrix == table.dims_formula


def test_tree_has_no_higher_cohomology(tree_corpus):
    for _, _, _, _, cx in tree_corpus:
        dims = cx.hh_matrix()
        assert dims[0] == 1
        assert all(d == 0 for d in dims[1:])


def test_non_tree_has_first_cohomology(corpus):
    for _, pres, _, _, cx in corpus:
        if pres.quiver.is_tree():
            continue
        dims = cx.hh_matrix()
        cycles = pres.quiver.num_arrows - pres.quiver.num_vertices + 1
        assert len(dims) > 1 and dims[1] >= cycles >= 1


def test_class_counts_counted_once_and_copied(monkeypatch):
    _, _, _, cx = tower(a_n_text(4))
    first = cx.class_counts(2)
    monkeypatch.setattr(cx, "pairs", lambda n: [])
    first["(0,0)"] += 100
    first.clear()
    again = cx.class_counts(2)
    assert again is not first and again == tower(a_n_text(4))[3].class_counts(2)
    assert sum(again.values()) > 0


def test_hh_table_built_once(monkeypatch):
    _, _, _, cx = tower(a_n_text(4))
    table = cx.hh_table()
    monkeypatch.setattr(cx, "hh_formula", None)
    assert cx.hh_table() is table


def test_trimmed_hh_leaves_the_table(tmp_path, monkeypatch, capsys):
    """hh --max-degree trims a new table, not the cached one."""
    built = []
    real = CochainComplex.hh_table
    monkeypatch.setattr(CochainComplex, "hh_table",
                        lambda self: built.append(real(self)) or built[-1])
    path = tmp_path / "a4.quiver"
    path.write_text(a_n_text(4))
    assert main(["hh", str(path), "--max-degree", "1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert [r["degree"] for r in doc["hh"]["rows"]] == [0, 1]
    assert [r.degree for r in built[0].rows] == [0, 1, 2]
