"""Ids for basis paths and AP elements: the product table on ids against
the Path-level product it replaced, the id layout the walk relies on, and
the differential's terms in ids."""

from collections import Counter
from unittest import mock

import pytest

from conftest import a_n_text, build_tower
from stringcoh import Resolution, parse
from stringcoh.checks import Auditor
from stringcoh.cup import _walk, cocycle_basis, cup_table, splittings
from stringcoh.generate import generate, generate_dsl
from tests_support import (arrow_path, basis_id, basis_paths, path_mult,
                           path_mult3, support, trivial_path, word_path)


def lanes(ns):
    return [(f"a_n({n})",) + build_tower(parse(a_n_text(n))) for n in ns]


def corpus_towers(corpus):
    return [(f"seed {seed}", basis, res, cx)
            for seed, _, basis, res, cx in corpus]


def product_kind(p, q, product) -> str:
    if p.target != q.source:
        return "apart"
    return "ideal" if product is None else "basis"


def test_id_product_matches_path_product(corpus):
    """mult on ids agrees with compose + reduce on every ordered pair of
    basis paths, among them pairs that do not compose and pairs whose
    product falls in the ideal."""
    kinds = Counter()
    for name, basis, _, _ in corpus_towers(corpus) + lanes(range(1, 9)):
        paths = basis_paths(basis)
        for i, p in enumerate(paths):
            for j, q in enumerate(paths):
                want = path_mult(basis, p, q)
                got = basis.mult(i, j)
                assert got == (None if want is None
                               else basis_id(basis, want)), (
                    name, i, j)
                kinds[product_kind(p, q, want)] += 1
    assert kinds["apart"] and kinds["ideal"] and kinds["basis"]


def test_id_triple_product_matches_path_product(corpus):
    """mult3 on ids agrees with the Path-level triple product on every
    ordered triple of basis paths."""
    kinds = Counter()
    for name, basis, _, _ in corpus_towers(corpus) + lanes(range(1, 9)):
        paths = basis_paths(basis)
        for i, p in enumerate(paths):
            for j, q in enumerate(paths):
                pq = path_mult(basis, p, q)
                for k, r in enumerate(paths):
                    want = path_mult3(basis, p, q, r)
                    got = basis.mult3(i, j, k)
                    assert got == (None if want is None
                                   else basis_id(basis, want)), (name, i, j, k)
                    if pq is not None:
                        kinds[product_kind(pq, r, want)] += 1
    assert kinds["apart"] and kinds["ideal"] and kinds["basis"]


def test_ids_follow_the_canonical_orders(corpus):
    """The trivial path at vertex v is basis path v and element v of AP_0;
    arrow a is element a of AP_1; every element's id is its position in
    its layer."""
    for name, basis, res, _ in corpus_towers(corpus) + lanes(range(1, 6)):
        q = res.quiver
        for v in range(q.num_vertices):
            assert basis_id(basis, trivial_path(q, v)) == v, name
            assert support(q, res.ap[0][v]) == trivial_path(q, v), name
        if len(res.ap) > 1:
            assert [support(q, w) for w in res.ap[1]] == [
                arrow_path(q, a) for a in range(q.num_arrows)], name
        for layer in res.ap:
            assert [w.pos for w in layer] == list(range(len(layer))), name


def differential_towers(corpus):
    towers = [(name, res) for name, _, res, _ in corpus_towers(corpus)]
    towers += [(f"seed {s} at 24/48",
                build_tower(generate(s, max_vertices=24, max_arrows=48))[1])
               for s in range(13)]
    towers += [(name, res) for name, _, res, _ in lanes(range(1, 13))]
    return towers


def test_differential_terms_have_basis_cofactors(corpus):
    """On the 100-seed corpus, generate_dsl(0..12, 24, 48) and
    a_n(1..12), every divisor behind a differential term has both
    cofactors in the basis, so no term is dropped, and each term names
    the divisor's cofactors and element by their ids."""
    total = 0
    for name, res in differential_towers(corpus):
        paths = basis_paths(res.basis)
        for n in range(1, res.top + 1):
            d = res.differential(n)
            assert list(d) == [w.pos for w in res.ap[n]], name
            for w in res.ap[n]:
                got = [(c, paths[left], res.ap[n - 1][psi], paths[right])
                       for (left, psi, right), c in d[w.pos].items()]
                total += len(got)
                q = res.quiver
                sup = support(q, w)
                if n == 1:
                    source = trivial_path(q, sup.source)
                    target = trivial_path(q, sup.target)
                    assert got == [(1, sup, res.ap[0][target.source],
                                    target),
                                   (-1, source, res.ap[0][source.source],
                                    sup)], name
                    continue
                subs = res.sub(w)
                assert all(left is not None and right is not None
                           for _, _, _, left, right in subs), name
                assert [(paths[left], paths[right])
                        for _, _, _, left, right in subs] == [
                    (sup.prefix(start), sup.suffix(end))
                    for _, start, end, _, _ in subs], name
                signed = ([(1, s) for s in subs] if n % 2 == 0
                          else [(1, subs[1]), (-1, subs[0])])
                assert got == [(c, paths[left], res.ap[n - 1][pos],
                                paths[right])
                               for c, (pos, _, _, left, right) in signed], name
    assert total == 4482


def test_elements_are_id_triple_dicts_without_zeros(corpus):
    """Every value of differential(n), and every value of the walked
    chain-map lift of every basis cocycle, is an element of
    A (x) kAP_k (x) A as a dict (l, psi, r) -> c: no c is zero, l ends
    at the source of psi and r starts at its target.  On generate(0..99),
    generate_dsl(0..12, 24, 48) and a_n(1..8); a stored zero or a triple
    built with its cofactors swapped fails."""
    towers = corpus_towers(corpus)
    towers += [(f"seed {s} at 24/48",)
               + build_tower(generate(s, max_vertices=24, max_arrows=48))
               for s in range(13)]
    towers += lanes(range(1, 9))
    entries = Counter()
    for name, basis, res, cx in towers:
        paths = basis_paths(basis)
        elements = [("d", n - 1, image) for n in range(1, res.top + 1)
                    for image in res.differential(n).values()]
        for m in range(1, cx.top + 1):
            fs = cocycle_basis(cx, m)
            failed, lifts = _walk(cx, fs, True)
            assert failed is None and len(lifts) == len(fs), (name, m)
            elements += [("lift", n, value)
                         for values in lifts
                         for n, layer in enumerate(values)
                         for value in layer.values()]
        for kind, k, element in elements:
            for (left, psi, right), c in element.items():
                e = res.ap[k][psi]
                assert c != 0, (name, kind, k)
                assert paths[left].target == e.source, (name, kind, k)
                assert paths[right].source == e.target, (name, kind, k)
                entries[kind] += 1
    assert entries == {"d": 3506, "lift": 2834}


def test_divisor_with_a_cofactor_in_the_ideal_is_dropped(monkeypatch):
    """A divisor whose cofactor falls in the ideal is zero in
    A (x) kAP (x) A: the differential and the cochain map leave it out
    instead of keying it by some other id."""
    pres = parse(a_n_text(4))
    _, res, cx = build_tower(pres)
    real_d2, real_matrix = res.differential(2), cx.matrix(2)
    real_sub = Resolution.sub
    relation = word_path(pres.quiver, pres.relations[0])

    def with_dead_divisor(self, w):
        subs = real_sub(self, w)
        if w.degree % 2:
            return subs
        # the relation as a left cofactor: its word has no basis id
        pos, start, end, _, _ = subs[0]
        dead = (pos, len(relation), len(relation) + end - start,
                self.basis.word_index.get(relation.arrows), relation.target)
        return [dead] + subs

    monkeypatch.setattr(Resolution, "sub", with_dead_divisor)
    _, res, cx = build_tower(pres)
    assert basis_id(res.basis, relation) is None
    assert res.differential(2) == real_d2
    assert cx.matrix(2) == real_matrix


def test_occurrence_with_a_cofactor_in_the_ideal_is_counted():
    """The third field of cup.splittings counts every
    occurrence of AP_n in head * u, also one whose cofactor falls in the
    ideal, which the divisor list drops, and cup_table's
    odd_positions_max reads that count.  No corpus input has such an
    occurrence, so one is injected: the word of one cofactor is hidden
    from PathBasis.word_index while splittings(1, 1) is built."""
    pres = generate(3, max_vertices=24, max_arrows=48)
    ref = build_tower(pres)[2]
    rows = splittings(ref, 1, 1)
    most = max(count for _, _, count in rows)
    i = next(k for k, (_, _, count) in enumerate(rows) if count == most)
    # w is the only generator with that many odd-degree positions
    odd = [count for n in range(1, ref.top + 1, 2)
           for m in range(1, ref.top - n + 1)
           for _, _, count in splittings(ref, n, m)]
    assert odd.count(most) == 1 and cup_table(ref).odd_positions_max == most

    basis, res, cx = build_tower(pres)
    w = res.ap[2][i]
    sup = support(res.quiver, w)
    word, source = sup.arrows, sup.source
    j = len(word) - 1  # the degree-1 tail is the last arrow
    occurrences = res.occurrences_in(1, word[:j], source)
    psi, a, _, _, _ = next(occ for occ in occurrences if occ[1] > 0)
    with mock.patch.dict(basis.word_index):
        del basis.word_index[word[:a]]
        tail, divisors, count = splittings(cx, 1, 1)[i]
    assert (tail, count) == (rows[i][0], len(occurrences)) == (rows[i][0], most)
    dropped = (ref.basis.word_index[word[:a]], psi)
    assert [d[:2] for d in rows[i][1]].count(dropped) == 1
    assert list(divisors) == [d for d in rows[i][1] if d[:2] != dropped]
    assert cup_table(cx).odd_positions_max == count > len(divisors)


@pytest.mark.parametrize("text", [a_n_text(7), generate_dsl(0)],
                         ids=["a_n(7)", "generate_dsl(0)"])
def test_auditor_fills_no_product_before_the_first(text):
    """Building the tower takes no product: the table fills on first
    use, so a small input pays only for the products it takes."""
    auditor = Auditor(parse(text))
    assert not auditor.basis._products
    assert auditor.check_d_squared().passed
    assert auditor.basis._products
