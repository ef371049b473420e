import pytest

from conftest import a_n_text
from stringcoh import ParseError, Presentation, basis_P, parse, validate
from stringcoh.generate import generate
from tests_support import (
    arrow_path,
    basis_id,
    basis_paths,
    compose,
    enumerate_paths,
    fmt,
    occurrences,
    path,
    scan_non_minimal_pairs,
    trivial_path,
    word_path,
)


def test_parse_two_parallel_arrows():
    pres = parse("vertex 0 1\narrow a 0 1\narrow b 0 1")
    assert pres.quiver.num_vertices == 2
    assert pres.quiver.num_arrows == 2
    assert pres.relations == ()


def test_parse_two_lane_three_steps():
    pres = parse(a_n_text(3))
    assert len(pres.relations) == 4
    assert all(len(r) == 2 for r in pres.relations)


def test_parse_comments_and_blank_lines():
    pres = parse("# heading\n\nvertex 0 1  # two vertices\narrow a 0 1\n")
    assert pres.quiver.num_arrows == 1


def test_parse_short_relation_rejected():
    with pytest.raises(ParseError) as err:
        parse("vertex 0 1\narrow a1 0 1\nrelation a1")
    assert err.value.line == 3


def test_parse_unknown_directive():
    with pytest.raises(ParseError) as err:
        parse("vertices 0 1")
    assert err.value.line == 1


def test_parse_unknown_arrow_in_relation():
    with pytest.raises(ParseError):
        parse("vertex 0 1\narrow a 0 1\nrelation a c")


def test_parse_non_composable_relation():
    text = "vertex 0 1\narrow a 0 1\narrow b 0 1\nrelation a b"
    with pytest.raises(ParseError):
        parse(text)


def test_parse_duplicate_names_rejected():
    with pytest.raises(ParseError):
        parse("vertex 0 0")
    with pytest.raises(ParseError):
        parse("vertex 0 1\narrow a 0 1\narrow a 0 1")


def test_parse_unknown_vertex():
    with pytest.raises(ParseError):
        parse("vertex 0\narrow a 0 9")


def test_validate_two_lane_passes():
    report = validate(parse(a_n_text(3)))
    assert report.passed
    assert {name for name, _, _ in report.checks} == {
        "acyclic", "connected", "relation-lengths",
        "minimal-generators", "S1", "S2",
    }


def test_validate_names_short_relations():
    """parse rejects a relation of fewer than two arrows; those of a
    presentation built by hand, the empty word included, are named."""
    quiver = parse("vertex 0 1\narrow a 0 1\n").quiver
    report = validate(Presentation(quiver, ((), (0,))))
    assert report.failures() == [
        ("relation-lengths", "relations of length < 2: e, a"),
        ("minimal-generators", "e divides a")]


def test_validate_s2_failure_names_arrow():
    text = "vertex 0 1 2\narrow a 0 1\narrow b 1 2\narrow c 1 2"
    report = validate(parse(text))
    failed = dict((name, detail) for name, detail in report.failures())
    assert set(failed) == {"S2"}
    assert "a" in failed["S2"]


def test_validate_s1_failure_three_parallel():
    text = "vertex 0 1\narrow a 0 1\narrow b 0 1\narrow c 0 1"
    report = validate(parse(text))
    assert {name for name, _ in report.failures()} == {"S1", "S2"} or {
        name for name, _ in report.failures()
    } == {"S1"}
    assert any(name == "S1" for name, _ in report.failures())


def test_validate_cycle_fails():
    report = validate(parse("vertex 0 1\narrow a 0 1\narrow b 1 0"))
    assert any(name == "acyclic" for name, _ in report.failures())


def test_validate_disconnected_fails():
    report = validate(parse("vertex 0 1 2\narrow a 0 1"))
    assert any(name == "connected" for name, _ in report.failures())


def test_validate_non_minimal_generators():
    text = ("vertex 0 1 2 3\narrow a 0 1\narrow b 1 2\narrow c 2 3\n"
            "relation a b\nrelation a b c")
    report = validate(parse(text))
    assert any(name == "minimal-generators" for name, _ in report.failures())


NESTED = ("vertex 0 1 2 3 4\narrow a 0 1\narrow b 1 2\narrow c 2 3\n"
          "arrow d 3 4\n")


def minimal_generators_detail(pres):
    return next(detail for name, _, detail in validate(pres).checks
                if name == "minimal-generators")


@pytest.mark.parametrize("relations, detail", [
    ("relation a b\nrelation a b c\n", "a*b divides a*b*c"),
    ("relation b c d\nrelation a b c\nrelation b c\nrelation a b\n",
     "a*b divides a*b*c; b*c divides a*b*c; b*c divides b*c*d"),
])
def test_minimal_generators_detail(relations, detail):
    pres = parse(NESTED + relations)
    assert minimal_generators_detail(pres) == detail
    assert detail == "; ".join(f"{fmt(pres, a)} divides {fmt(pres, b)}"
                               for a, b in scan_non_minimal_pairs(pres))


def test_minimal_generators_passes_on_corpus(corpus):
    for seed, pres, *_ in corpus:
        assert not scan_non_minimal_pairs(pres), seed
        assert minimal_generators_detail(pres) == "", seed


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_in_ideal_matches_scan(seed):
    """Seeds with paths of length 4 and relations of length up to 5."""
    pres = generate(seed, max_vertices=24, max_arrows=48)
    paths = enumerate_paths(pres.quiver, 4)
    assert any(len(p) == 4 for p in paths)
    for p in paths:
        assert pres.in_ideal(p.arrows) == any(
            occurrences(word_path(pres.quiver, r), p) for r in pres.relations)


def test_in_ideal_relation_itself():
    pres = parse(a_n_text(3))
    q = pres.quiver
    a1a2 = path(q, 0, [0, 2])
    assert pres.in_ideal(a1a2.arrows)


def test_in_ideal_mixed_path_survives():
    pres = parse(a_n_text(3))
    q = pres.quiver
    a1b2 = path(q, 0, [0, 3])
    assert not pres.in_ideal(a1b2.arrows)


def test_in_ideal_trivial_path():
    pres = parse(a_n_text(3))
    assert not pres.in_ideal(trivial_path(pres.quiver, 0).arrows)


def test_basis_single_vertex():
    basis = basis_P(parse("vertex 0"))
    assert basis.dim == 1


def test_basis_two_parallel_arrows():
    basis = basis_P(parse("vertex 0 1\narrow a 0 1\narrow b 0 1"))
    assert basis.dim == 4


def test_basis_two_lane_three_steps():
    pres = parse(a_n_text(3))
    basis = basis_P(pres)
    assert basis.dim == 16
    by_len = {}
    for p in basis_paths(basis):
        by_len[len(p)] = by_len.get(len(p), 0) + 1
    assert by_len == {0: 4, 1: 6, 2: 4, 3: 2}


def test_basis_factor_closed_and_ordered(corpus):
    for _, pres, basis, _, _ in corpus[:25]:
        paths = set(basis_paths(basis))
        for p in paths:
            assert p.prefix(len(p) - 1) in paths if len(p) else True
            assert p.suffix(1) in paths if len(p) else True
        keys = [p.sort_key for p in basis_paths(basis)]
        assert keys == sorted(keys)
        assert all(trivial_path(pres.quiver, v) in paths
                   for v in range(pres.quiver.num_vertices))


def test_basis_agrees_with_ideal_scan(corpus):
    for _, pres, basis, _, _ in corpus[:25]:
        for p in enumerate_paths(pres.quiver):
            assert ((basis_id(basis, p) is not None)
                    == (not pres.in_ideal(p.arrows)))


def test_ideal_absorbs_products(corpus):
    for _, pres, basis, _, _ in corpus[:25]:
        paths = enumerate_paths(pres.quiver)
        for u in paths:
            for v in paths:
                if u.target != v.source:
                    continue
                if pres.in_ideal(u.arrows) or pres.in_ideal(v.arrows):
                    assert pres.in_ideal(compose(u, v).arrows)


def test_unique_continuation_propagates_to_basis(corpus):
    """At most one arrow extends a basis path on each side without
    falling into the ideal."""
    for _, pres, basis, _, _ in corpus[:25]:
        q = pres.quiver
        for gamma in basis_paths(basis):
            if gamma.is_trivial:
                continue
            g = basis_id(basis, gamma)
            succ = [b for b in q.out_arrows(gamma.target)
                    if basis.mult(g, basis_id(basis, arrow_path(q, b)))
                    is not None]
            pred = [b for b in q.in_arrows(gamma.source)
                    if basis.mult(basis_id(basis, arrow_path(q, b)), g)
                    is not None]
            assert len(succ) <= 1 and len(pred) <= 1
