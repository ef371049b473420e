import pytest
from hypothesis import given, strategies as st

from stringcoh.quiver import CyclicQuiverError, Quiver
from tests_support import (
    CompositionError,
    arrow_path,
    compose,
    divides,
    enumerate_paths,
    occurrences,
    path,
    trivial_path,
)


def two_lane(n):
    arrows = []
    for i in range(n):
        arrows.append((f"a{i + 1}", i, i + 1))
        arrows.append((f"b{i + 1}", i, i + 1))
    return Quiver([str(i) for i in range(n + 1)], arrows)


@pytest.fixture
def q3():
    return two_lane(3)


def test_compose_concatenates(q3):
    a1, a2 = arrow_path(q3, 0), arrow_path(q3, 2)
    p = compose(a1, a2)
    assert p.arrows == (0, 2)
    assert (p.source, p.target) == (0, 2)


def test_compose_trivial_is_identity(q3):
    a1 = arrow_path(q3, 0)
    assert compose(trivial_path(q3, 0), a1) == a1
    assert compose(a1, trivial_path(q3, 1)) == a1


def test_compose_endpoint_mismatch(q3):
    a1, b1 = arrow_path(q3, 0), arrow_path(q3, 1)
    with pytest.raises(CompositionError):
        compose(a1, b1)


def test_occurrences_single(q3):
    w = path(q3, 0, [0, 2, 4])  # a1 a2 a3
    a2 = arrow_path(q3, 2)
    occ = occurrences(a2, w)
    assert occ == [(path(q3, 0, [0]), path(q3, 2, [4]))]


def test_occurrences_self_division(q3):
    w = path(q3, 0, [0, 2])
    occ = occurrences(w, w)
    assert occ == [(trivial_path(q3, 0), trivial_path(q3, 2))]
    assert not divides(w, w)


def test_occurrences_absent(q3):
    w = path(q3, 0, [0, 2])
    assert occurrences(arrow_path(q3, 1), w) == []


def test_occurrences_trivial_subpath(q3):
    w = path(q3, 0, [0, 2])
    occ = occurrences(trivial_path(q3, 1), w)
    assert len(occ) == 1
    left, right = occ[0]
    assert left.arrows == (0,) and right.arrows == (2,)


def test_enumerate_single_vertex():
    q = Quiver(["0"], [])
    assert enumerate_paths(q) == [trivial_path(q, 0)]


def test_enumerate_two_parallel_arrows():
    q = two_lane(1)
    assert len(enumerate_paths(q)) == 4


def test_enumerate_three_levels_ignoring_relations(q3):
    # 4 trivial + 6 arrows + 8 length-2 + 8 length-3
    assert len(enumerate_paths(q3)) == 26


def test_enumerate_orders_by_length_then_arrows(q3):
    paths = enumerate_paths(q3)
    keys = [p.sort_key for p in paths]
    assert keys == sorted(keys)


def test_enumerate_is_factor_closed(q3):
    paths = set(enumerate_paths(q3))
    for p in paths:
        for i in range(len(p) + 1):
            assert p.prefix(i) in paths
            assert p.suffix(i) in paths


def test_enumerate_rejects_cycles():
    q = Quiver(["0", "1"], [("a", 0, 1), ("b", 1, 0)])
    with pytest.raises(CyclicQuiverError):
        enumerate_paths(q)


def test_acyclic_linear():
    q = Quiver(["0", "1", "2"], [("a", 0, 1), ("b", 1, 2)])
    assert q.is_acyclic()


def test_acyclic_rejects_loop():
    q = Quiver(["0"], [("a", 0, 0)])
    assert not q.is_acyclic()


def test_acyclic_rejects_two_cycle():
    q = Quiver(["0", "1"], [("a", 0, 1), ("b", 1, 0)])
    assert not q.is_acyclic()


def test_compose_associative(q3):
    paths = enumerate_paths(q3)
    for p in paths:
        for q_ in paths:
            if p.target != q_.source:
                continue
            for r in paths:
                if q_.target != r.source:
                    continue
                assert compose(compose(p, q_), r) == compose(p, compose(q_, r))


def test_occurrence_count_matches_scan(q3):
    paths = enumerate_paths(q3)
    for w in paths:
        for sub in paths:
            k = len(sub)
            expected = sum(
                1
                for i in range(len(w) - k + 1)
                if w.arrows[i : i + k] == sub.arrows
                and w.vertices[i] == sub.source
            )
            assert len(occurrences(sub, w)) == expected


@given(st.lists(st.integers(0, 5), max_size=6))
def test_path_subpath_roundtrip(cuts):
    q = two_lane(6)
    w = path(q, 0, [2 * i for i in range(6)])
    for c in cuts:
        assert compose(w.prefix(c), w.suffix(c)) == w


@pytest.mark.parametrize("vertices, arrows, message", [
    (["0", "0"], [], "duplicate vertex labels"),
    (["0", "1"], [("a", 0, 1), ("a", 0, 1)], "duplicate arrow labels"),
    (["0", "1"], [("a", 0, 2)], "arrow endpoint out of range"),
    (["0", "1"], [("a", -1, 1)], "arrow endpoint out of range"),
])
def test_bad_quiver_raises_value_error(vertices, arrows, message):
    with pytest.raises(ValueError, match=message):
        Quiver(vertices, arrows)


def test_longest_path_length(q3):
    assert q3.longest_path_length() == 3
    assert Quiver(["0"], []).longest_path_length() == 0
