"""Resolution.occurrences_in, the AP divisor index behind sub (and
through it leibniz_slots) and splittings, with the cofactor ids of every
divisor, against a scan of the whole AP layer."""

from importlib import import_module
from unittest import mock

import pytest

from conftest import a_n_text, build_tower
from stringcoh import basis_P, parse
from stringcoh.checks import Auditor
from stringcoh.generate import generate, generate_dsl
from tests_support import (Path, basis_id, basis_paths, fmt,
                           path_leibniz_slots, path_splittings,
                           scan_occurrences, support, trivial_path)

# the package exports the function cup, which shadows the module
cup = import_module("stringcoh.cup")


def targets(res):
    """Every AP support of every degree and every basis path."""
    out = {support(res.quiver, e) for layer in res.ap for e in layer}
    out.update(basis_paths(res.basis))
    return sorted(out, key=lambda p: p.sort_key)


def scanned(res, n, t):
    """scan_occurrences as (position, start, end, id of left, id of
    right) records, ordered by start and then by position."""
    found = [(e.pos, len(left), len(t) - len(right),
              basis_id(res.basis, left), basis_id(res.basis, right))
             for left, e, right in scan_occurrences(res, n, t)]
    return sorted(found, key=lambda d: (d[1], d[0]))


def assert_matches_scan(res) -> int:
    """Check every target in every degree; the number of cofactors in
    the ideal seen."""
    dead = 0
    for t in targets(res):
        for n in range(-1, res.top + 3):
            want = scanned(res, n, t)
            assert (res.occurrences_in(n, t.arrows, t.source)
                    == want), (n, fmt(res.pres, t))
            dead += sum(d[3:].count(None) for d in want)
    return dead


def test_index_matches_scan_on_corpus(corpus):
    dead = sum(assert_matches_scan(res) for _, _, _, res, _ in corpus)
    assert dead > 0  # the cofactors in the ideal are pinned too


@pytest.mark.parametrize("n", range(1, 9))
def test_index_matches_scan_on_lanes(n):
    _, res, _ = build_tower(parse(a_n_text(n)))
    assert_matches_scan(res)


def test_trivial_support_occurs_at_every_visit():
    _, res, _ = build_tower(parse(a_n_text(4)))
    t = max(basis_paths(res.basis), key=len)
    hits = res.occurrences_in(0, t.arrows, t.source)
    assert len(hits) == len(t) + 1
    for i, (pos, start, end, left, right) in enumerate(hits):
        assert (support(res.quiver, res.ap[0][pos])
                == trivial_path(res.quiver, t.vertices[i]))
        assert (start, end) == (i, i)
        assert left == basis_id(res.basis, t.prefix(i))
        assert right == basis_id(res.basis, t.suffix(i))


def test_degrees_outside_the_resolution_are_empty():
    _, res, _ = build_tower(parse(a_n_text(4)))
    t = support(res.quiver, res.ap[res.top][0])
    assert res.occurrences_in(res.top, t.arrows, t.source)
    for n in (-1, res.top + 1, res.top + 5):
        assert res.occurrences_in(n, t.arrows, t.source) == []


def test_splittings_match_the_path_oracle(corpus):
    """Every entry of CochainComplex.splittings(n, m), n >= 0 and m >= 1
    with n + m <= top, equals the Path-level route it replaced on
    generate(0..99), generate_dsl(0..12, 24, 48) and a_n(1..12)."""
    towers = [cx for _, _, _, _, cx in corpus]
    towers += [build_tower(generate(s, max_vertices=24, max_arrows=48))[2]
               for s in range(13)]
    towers += [build_tower(parse(a_n_text(n)))[2] for n in range(1, 13)]
    entries = 0
    for cx in towers:
        for m in range(1, cx.top + 1):
            for n in range(cx.top - m + 1):
                assert cx.splittings(n, m) == path_splittings(cx, n, m), (n, m)
                entries += len(cx.splittings(n, m))
    assert entries == 5758


def test_leibniz_slots_match_the_path_oracle(corpus):
    """Every entry of CochainComplex.leibniz_slots(n), read from the
    divisors sub(w) of each w in AP_{n+1}, equals the slots built from a
    scan of w without its last arrow, on generate(0..99) and a_n(1..8)."""
    towers = [cx for _, _, _, _, cx in corpus]
    towers += [build_tower(parse(a_n_text(n)))[2] for n in range(1, 9)]
    slots = 0
    for cx in towers:
        for n in range(cx.top):
            got = cx.leibniz_slots(n)
            assert got == path_leibniz_slots(cx, n), n
            slots += sum(map(len, got))
    assert slots > 0


@pytest.mark.parametrize(
    "text", [a_n_text(6), generate_dsl(0, max_vertices=24, max_arrows=48)],
    ids=["a_n(6)", "generate_dsl(0, 24, 48)"])
def test_divisor_route_builds_no_path(text):
    """On a built tower, filling sub, differential, matrix, leibniz_slots
    and splittings for every degree constructs no Path: the divisor route
    runs on arrow words, offsets and ids."""
    _, res, cx = build_tower(parse(text))
    top = res.top
    with mock.patch.object(Path, "__post_init__", autospec=True,
                           side_effect=Path.__post_init__) as made:
        trivial_path(res.quiver, 0)
        assert made.call_count == 1  # the counter sees a Path being made
        for k in range(1, top + 1):
            for w in res.ap[k]:
                res.sub(w)
            res.differential(k)
            cx.leibniz_slots(k - 1)
            for n in range(top - k + 1):
                cx.splittings(n, k)
        for k in range(1, top + 2):
            cx.matrix(k)
    assert made.call_count == 1
    assert top >= 4


@pytest.mark.parametrize(
    "text, slides",
    [(a_n_text(6), True),
     (generate_dsl(0, max_vertices=24, max_arrows=48), False)],
    ids=["a_n(6)", "generate_dsl(0, 24, 48)"])
def test_basis_and_slide_routes_build_no_path(text, slides):
    """Building the basis, the pairs of every degree, both normalizations
    of every basis cocycle and the strip and shared-arrow checks
    constructs no Path: a basis path is named by its id and read as an
    arrow word.  On a_n(6) the normalizations slide pairs through phi and
    phi_inv; generate_dsl(0, 24, 48) has no pair to slide."""
    pres = parse(text)
    auditor = Auditor(pres)
    cx = auditor.cx
    with mock.patch.object(Path, "__post_init__", autospec=True,
                           side_effect=Path.__post_init__) as made, \
            mock.patch.object(cup, "phi", wraps=cup.phi) as phi, \
            mock.patch.object(cup, "phi_inv", wraps=cup.phi_inv) as phi_inv:
        trivial_path(pres.quiver, 0)
        assert made.call_count == 1  # the counter sees a Path being made
        basis_P(pres)
        for n in range(cx.top + 2):
            cx.pairs(n)
        for m in range(1, cx.top + 1):
            for f in cup.cocycle_basis(cx, m):
                cup.normalize_leq(cx, f)
                cup.normalize_geq(cx, f)
        assert auditor.check_strip().passed
        assert auditor.check_shared_arrow_bound().passed
    assert made.call_count == 1
    assert (phi.call_count > 0 and phi_inv.call_count > 0) == slides
    assert cx.top >= 4
