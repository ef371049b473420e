"""The connected blocks of the cochain maps: each lies in one arrow-weight
class, and the elimination never sweeps a row with pivots outside its own
block or eliminates a cochain map twice."""

from collections import Counter

import pytest

from conftest import a_n_text, build_tower
from stringcoh import CochainComplex, linalg, parse
from stringcoh.cli import main
from stringcoh.cup import cohomology_basis
from stringcoh.generate import generate_dsl
from stringcoh.linalg import RationalMatrix
from tests_support import (
    basis_path,
    connected_blocks,
    full_sweep_bareiss,
    support,
)


def weight(cx, pair) -> frozenset:
    """The arrow weight arrows(gamma) - arrows(rho) of a pair, as a signed
    multiset."""
    w = Counter(basis_path(cx.basis, pair.gamma_id).arrows)
    w.subtract(support(cx.res.quiver, pair.rho).arrows)
    return frozenset((a, k) for a, k in w.items() if k)


def assert_graded(cx: CochainComplex):
    for n in range(1, cx.top + 1):
        mat = cx.matrix(n)
        rows = [weight(cx, p) for p in cx.pairs(n)]
        cols = [weight(cx, p) for p in cx.pairs(n - 1)]
        entries = [{} for _ in range(mat.rows)]
        for i, j, v in mat.items():
            assert rows[i] == cols[j], (n, i, j)
            entries[i][j] = v
        for block in connected_blocks(entries, mat.cols):
            classes = {rows[i] for i in block}
            classes |= {cols[j] for i in block for j in entries[i]}
            assert len(classes) == 1, (n, sorted(block))


def test_cochain_maps_are_graded_on_corpus(corpus):
    """Every entry of every cochain map joins two pairs of one arrow
    weight, so every connected block lies in one weight class.  The
    library does not rely on this; its blocks come from the matrices."""
    for _, _, _, _, cx in corpus:
        assert_graded(cx)


@pytest.mark.parametrize("n", range(1, 13))
def test_cochain_maps_are_graded_on_lanes(n):
    _, _, cx = build_tower(parse(a_n_text(n)))
    assert_graded(cx)


class _CountingRows(list):
    """Rows of an elimination, counting the updates of each row."""

    def __init__(self, rows):
        super().__init__(rows)
        self.updates = Counter()

    def __setitem__(self, i, row):
        self.updates[i] += 1
        super().__setitem__(i, row)


def test_rows_are_swept_only_by_their_own_block(monkeypatch):
    """On a_n(12), a row is updated at most once per other row of its
    connected block, so no elimination runs on more rows than the
    largest block of its matrix."""
    real = linalg._bareiss
    swept = []

    def counted(rows, ncols):
        blocks = connected_blocks(rows, ncols)
        rows = _CountingRows(rows)
        out = real(rows, ncols)
        size = {i: len(block) for block in blocks for i in block}
        for i, k in rows.updates.items():
            assert k <= size[i] - 1, (i, k, size[i])
        swept.append(sum(rows.updates.values()))
        return out

    monkeypatch.setattr(linalg, "_bareiss", counted)
    _, _, cx = build_tower(parse(a_n_text(12)))
    cx.hh_table()
    for m in range(1, cx.top + 1):
        cohomology_basis(cx, m)
    assert len(swept) > cx.top and any(swept)


@pytest.mark.parametrize("text, fewer", [
    (a_n_text(12), False),
    (generate_dsl(5, max_vertices=24, max_arrows=48), True)],
    ids=["a_n(12)", "generate_dsl(5, 24, 48)"])
def test_kernel_rewrites_fewer_rows_than_a_full_sweep(text, fewer,
                                                      monkeypatch):
    """A row without an entry in the pivot column is left as it is when
    the pivot equals the previous one.  Over the exactness ranks, ranks
    and cohomology bases of a tower the kernel returns the pivots and
    rows of the full sweep, rewriting fewer rows on generate_dsl(5, 24,
    48) (346 against 520).  On a_n(12) every row the sweep rewrites in a
    cochain map or an exactness rank holds the pivot column, so only the
    restricted images of the cohomology bases skip rows there (282
    against 348 in all)."""
    real = linalg._bareiss
    rewritten = Counter()

    def counted(rows, ncols):
        swept = _CountingRows([dict(row) for row in rows])
        expected = full_sweep_bareiss(swept, ncols)
        rows = _CountingRows(rows)
        out = real(rows, ncols)
        assert out == expected
        rewritten["kernel"] += sum(rows.updates.values())
        rewritten["full sweep"] += sum(swept.updates.values())
        return out

    monkeypatch.setattr(linalg, "_bareiss", counted)
    _, res, cx = build_tower(parse(text))
    res.homology_dims()
    cx.hh_table()
    for m in range(1, cx.top + 1):
        cohomology_basis(cx, m)
    kernel, sweep = rewritten["kernel"], rewritten["full sweep"]
    assert 0 < kernel < sweep if fewer else 0 < kernel <= sweep, rewritten


@pytest.mark.parametrize("text, total", [
    (a_n_text(7), 18), (generate_dsl(5, max_vertices=24, max_arrows=48), 15)],
    ids=["a_n(7)", "generate_dsl(5, 24, 48)"])
def test_check_eliminates_each_cochain_map_once(text, total, tmp_path,
                                                monkeypatch, capsys):
    """rank(n) and cocycle_basis(n - 1) share one elimination of
    matrix(n); column-space membership runs its own on [M | v | I].  The
    whole check runs ``total`` eliminations: the cochain maps, the
    one-sided exactness ranks and one restricted image per degree whose
    representatives the ranks leave open."""
    path = tmp_path / "input.quiver"
    path.write_text(text)
    towers = []

    def init(self, res, real=CochainComplex.__init__):
        real(self, res)
        towers.append(self)

    eliminated = []
    runs = []

    def echelon(self, real=RationalMatrix.echelon):
        eliminated.append(self)
        return real(self)

    def bareiss(rows, ncols, real=linalg._bareiss):
        runs.append(ncols)
        return real(rows, ncols)

    monkeypatch.setattr(CochainComplex, "__init__", init)
    monkeypatch.setattr(RationalMatrix, "echelon", echelon)
    monkeypatch.setattr(linalg, "_bareiss", bareiss)
    main(["check", str(path), "--json"])
    capsys.readouterr()
    (cx,) = towers
    counts = [sum(m is cx.matrix(n) for m in eliminated)
              for n in range(1, cx.top + 2)]
    assert counts == [1] * len(counts)
    assert len(runs) == total
