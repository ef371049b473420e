"""Resolution.occurrences_in, the AP divisor index behind sub and
splittings, against a scan of the whole AP layer."""

import pytest

from conftest import a_n_text, build_tower
from stringcoh import parse
from tests_support import scan_occurrences


def targets(res):
    """Every AP support of every degree and every basis path."""
    out = {e.support for layer in res.ap for e in layer}
    out.update(res.basis.paths)
    return sorted(out, key=lambda p: p.sort_key)


def assert_matches_scan(res):
    for t in targets(res):
        for n in range(-1, res.top + 3):
            assert res.occurrences_in(n, t) == scan_occurrences(res, n, t), (
                n, res.pres.format_path(t))


def test_index_matches_scan_on_corpus(corpus):
    for _seed, _pres, _basis, res, _cx in corpus:
        assert_matches_scan(res)


@pytest.mark.parametrize("n", range(1, 9))
def test_index_matches_scan_on_lanes(n):
    _, res, _ = build_tower(parse(a_n_text(n)))
    assert_matches_scan(res)


def test_trivial_support_occurs_at_every_visit():
    _, res, _ = build_tower(parse(a_n_text(4)))
    t = max(res.basis.paths, key=len)
    hits = res.occurrences_in(0, t)
    assert len(hits) == len(t) + 1
    for i, (left, e, right) in enumerate(hits):
        assert e.support == res.quiver.trivial_path(t.vertices[i])
        assert (left, right) == (t.prefix(i), t.suffix(i))


def test_degrees_outside_the_resolution_are_empty():
    _, res, _ = build_tower(parse(a_n_text(4)))
    t = res.ap[res.top][0].support
    assert res.occurrences_in(res.top, t)
    for n in (-1, res.top + 1, res.top + 5):
        assert res.occurrences_in(n, t) == []
