import dataclasses

import pytest

from conftest import a_n_text, build_tower
from stringcoh import ApConstructionError, Resolution, basis_P, parse
from stringcoh import resolution
from stringcoh.generate import generate
from tests_support import (
    ap_label,
    ap_sets,
    basis_id,
    basis_label,
    basis_path,
    blocks,
    compose,
    decompose,
    enumerate_paths,
    fmt,
    full_path,
    middle_label,
    support,
)


def line_text(n, rel_len, starts):
    """A line of n arrows a0..a{n-1} with one relation of length rel_len
    at each start."""
    return ("vertex " + " ".join(str(i) for i in range(n + 1)) + "\n"
            + "".join(f"arrow a{i} {i} {i + 1}\n" for i in range(n))
            + "".join("relation "
                      + " ".join(f"a{j}" for j in range(s, s + rel_len)) + "\n"
                      for s in starts))


def supports(res, n):
    return ({support(res.quiver, e) for e in res.ap[n]} if n < len(res.ap)
            else set())


def test_ap_two_lane_three_steps(a_n):
    pres, basis, res, cx = a_n[3]
    q = pres.quiver
    assert {s.arrows for s in supports(res, 2)} == set(pres.relations)
    assert {fmt(pres, s) for s in supports(res, 3)} == {
        "a1*a2*a3", "b1*b2*b3",
    }
    assert res.top == 3


def test_ap_degree_two_is_relation_set(corpus):
    for _, pres, _, res, _ in corpus:
        assert {s.arrows for s in supports(res, 2)} == set(pres.relations)


def test_ap_empty_without_relations(a_n):
    pres, basis, res, cx = a_n[1]
    assert res.top == 1


def test_ap_supports_longer_than_degree(corpus, tree_corpus,
                                        quadratic_corpus):
    """Every element of AP_n has a support of at least n arrows, exactly n
    in degrees 0 and 1, and n - 1 relations in each chain from degree 2,
    none below.  Its end vertices are those of its word, or the vertex
    pos in degree 0.  On generate(0..99), the tree and quadratic corpora,
    generate_dsl(0..12, 24, 48) and a_n(1..12)."""
    towers = [t[3] for t in corpus + tree_corpus + quadratic_corpus]
    towers += [build_tower(generate(s, max_vertices=24, max_arrows=48))[1]
               for s in range(13)]
    towers += [build_tower(parse(a_n_text(n)))[1] for n in range(1, 13)]
    for res in towers:
        q = res.quiver
        for n, layer in enumerate(res.ap):
            for e in layer:
                sup = support(q, e)
                assert len(sup) >= n
                assert len(e.word) == n if n < 2 else len(e.word) >= n
                assert len(e.chain) == len(e.op_chain) == max(n - 1, 0)
                if n:
                    ends = (q.arrow_source[e.word[0]],
                            q.arrow_target[e.word[-1]])
                else:
                    ends = (e.pos, e.pos)
                assert (e.source, e.target) == ends
                assert (sup.source, sup.target) == ends


def _relations_along(t, pres):
    """(start, end, relation word) for every relation occurring in t."""
    words = set(pres.relations)
    lengths = {len(r) for r in pres.relations}
    return [(i, i + k, t.arrows[i : i + k])
            for i in range(len(t)) for k in lengths
            if i + k <= len(t) and t.arrows[i : i + k] in words]


def brute_force_ap(pres):
    """Oracle: a directed path t is a support exactly when the greedy
    overlap rule, run along t from the relation at its start, ends flush
    with t.  Tries every directed path of the quiver, with an independent
    scan.  Returns degree -> {support: chain}."""
    found = {}
    for t in enumerate_paths(pres.quiver):
        occ = _relations_along(t, pres)
        chain = [o for o in occ if o[0] == 0]
        while chain and chain[-1][1] < len(t):
            if len(chain) == 1:
                window = [o for o in occ if chain[0][0] < o[0] < chain[0][1]]
            else:
                window = [o for o in occ if chain[-2][1] <= o[0] < chain[-1][1]]
            if not window:
                break
            chain.append(min(window, key=lambda o: o[0]))
        if chain and chain[-1][1] == len(t):
            found.setdefault(len(chain) + 1, {})[t] = tuple(o[2] for o in chain)
    return found


def brute_force_op_ap(pres):
    """The dual oracle: the right-greedy rule, walking left along t from
    the relation at its end, must end flush with the start of t.  Returns
    degree -> {support: dual chain, left to right}."""
    found = {}
    for t in enumerate_paths(pres.quiver):
        occ = _relations_along(t, pres)
        chain = [o for o in occ if o[1] == len(t)]  # right to left
        while chain and chain[-1][0] > 0:
            if len(chain) == 1:
                window = [o for o in occ if chain[0][0] < o[1] < chain[0][1]]
            else:
                window = [o for o in occ if chain[-1][0] < o[1] <= chain[-2][0]]
            if not window:
                break
            chain.append(max(window, key=lambda o: o[1]))
        if chain and chain[-1][0] == 0:
            found.setdefault(len(chain) + 1, {})[t] = tuple(
                o[2] for o in reversed(chain))
    return found


def assert_matches_oracles(pres, basis, res):
    """In every degree, uncapped and under a degree cap, the supports and
    chains of the forward run (in ap) equal the left-greedy oracle's, and
    the dual chains, in ap and in the mirrored run's own tables
    (op_ap_sets, keyed by arrow word), equal the right-greedy oracle's."""
    forward, dual = brute_force_ap(pres), brute_force_op_ap(pres)
    for built in (res, Resolution(pres, basis, max_degree=3)):
        mirror = built.op_ap_sets()
        q = built.quiver
        for n in range(2, built.cap + 1):
            layer = built.ap[n] if n < len(built.ap) else []
            run = mirror[n - 2] if n - 2 < len(mirror) else {}
            assert ({support(q, e): e.chain for e in layer}
                    == forward.get(n, {})), n
            assert ({support(q, e): e.op_chain for e in layer}
                    == dual.get(n, {})), n
            assert run == {p.arrows: c for p, c in dual.get(n, {}).items()}, n


def test_ap_against_all_paths_oracle(corpus):
    for _, pres, basis, res, _ in corpus:
        assert_matches_oracles(pres, basis, res)


def test_ap_two_lane_against_oracles():
    for n in range(1, 13):
        pres = parse(a_n_text(n))
        basis = basis_P(pres)
        assert_matches_oracles(pres, basis, Resolution(pres, basis))


@pytest.mark.parametrize("n, rel_len, step", [
    (12, 3, 1), (16, 4, 1), (14, 5, 2), (18, 6, 4),
])
def test_ap_dense_lines_against_oracles(n, rel_len, step):
    """Monomial lines where several relations start inside one window, so
    the greedy rule has to reject all but the leftmost."""
    pres = parse(line_text(n, rel_len, range(0, n - rel_len + 1, step)))
    basis = basis_P(pres)
    assert_matches_oracles(pres, basis, Resolution(pres, basis))


def test_op_sets_match_everywhere(a_n, corpus):
    """The forward run (ap) and the mirrored run (op_ap_sets) find the
    same supports, as arrow words, in every degree from 2."""
    towers = [t[2] for t in a_n.values()] + [t[3] for t in corpus]
    for res in towers:
        assert [set(layer) for layer in res.op_ap_sets()] == [
            {support(res.quiver, e).arrows for e in layer}
            for layer in res.ap[2:]]


def test_ap_element_hash_is_degree_and_support(corpus, a_n):
    """An AP element hashes as (degree, pos), its id, and within a degree
    its support fixes its position.  Equal elements hash equal and
    element-keyed lookups still hit; an element with the same degree,
    support and position but another chain stays unequal.  The word of a
    support of degree >= 1 finds its position."""
    towers = [res for _, _, _, res, _ in corpus] + [a_n[5][2]]
    for res in towers:
        for n, layer in enumerate(res.ap):
            index = {w: i for i, w in enumerate(layer)}
            for i, w in enumerate(layer):
                copy = resolution.ApElement(w.degree, w.word, w.source,
                                            w.target, w.chain, w.op_chain,
                                            w.pos)
                assert copy == w and hash(copy) == hash(w)
                assert hash(w) == hash((n, w.pos))
                if n:
                    assert (res.positions(n)[support(res.quiver, copy).arrows]
                            == w.pos)
                assert index[copy] == i
    w = a_n[5][2].ap[3][0]
    other = dataclasses.replace(w, chain=(w.word,) * 2)
    assert other.chain != w.chain
    assert hash(other) == hash(w) and other != w
    assert len({w: 0, other: 1}) == 2


def test_sub_of_degree_three_element(a_n):
    pres, basis, res, cx = a_n[3]
    (w,) = [e for e in res.ap[3] if ap_label(res, e) == "a1*a2*a3"]
    subs = res.sub(w)
    assert [ap_label(res, res.ap[2][d[0]]) for d in subs] == ["a1*a2", "a2*a3"]
    assert [(start, end) for _, start, end, _, _ in subs] == [(0, 2), (1, 3)]
    assert [(basis_label(res, left), basis_label(res, right))
            for _, _, _, left, right in subs] == [("e_0", "a3"), ("a1", "e_3")]


def test_sub_of_relation_is_its_arrows(a_n):
    pres, basis, res, cx = a_n[3]
    (w,) = [e for e in res.ap[2] if ap_label(res, e) == "a1*a2"]
    subs = res.sub(w)
    assert [ap_label(res, res.ap[1][d[0]]) for d in subs] == ["a1", "a2"]


def test_sub_two_for_odd_and_quadratic(corpus):
    for _, _, _, res, _ in corpus:
        for n in range(2, res.top + 1):
            for w in res.ap[n]:
                subs = res.sub(w)
                if n % 2 == 1 or any(len(p) == 2 for p in w.chain):
                    assert len(subs) == 2


def test_decompose_examples(a_n):
    pres, basis, res, cx = a_n[3]
    (w3,) = [e for e in res.ap[3] if ap_label(res, e) == "a1*a2*a3"]
    head, u, tail = decompose(res, w3, 2, 1)
    assert (ap_label(res, head), fmt(pres, u), ap_label(res, tail)) == (
        "a1*a2", "e_2", "a3",
    )
    head, u, tail = decompose(res, w3, 1, 2)
    assert (ap_label(res, head), fmt(pres, u), ap_label(res, tail)) == (
        "a1", "e_1", "a2*a3",
    )
    (w2,) = [e for e in res.ap[2] if ap_label(res, e) == "a1*a2"]
    head, u, tail = decompose(res, w2, 1, 1)
    assert (ap_label(res, head), fmt(pres, u), ap_label(res, tail)) == (
        "a1", "e_1", "a2",
    )


def test_decompose_reassembles(corpus):
    for _, _, basis, res, _ in corpus[:40]:
        for n in range(2, res.top + 1):
            for w in res.ap[n]:
                for k in range(n + 1):
                    head, u, tail = decompose(res, w, k, n - k)
                    q = res.quiver
                    rebuilt = compose(compose(support(q, head), u),
                                      support(q, tail))
                    assert rebuilt == support(q, w)
                    assert basis_id(basis, u) is not None


def test_differential_degree_one(a_n):
    pres, basis, res, cx = a_n[1]
    terms = res.differential(1)
    (alpha,) = [e for e in res.ap[1] if ap_label(res, e) == "a1"]
    ((l1, psi1, _), c1), ((_, psi2, r2), c2) = terms[alpha.pos].items()
    assert (c1, basis_label(res, l1), middle_label(res, 0, psi1)) == (
        1, "a1", "e_1",
    )
    assert (c2, middle_label(res, 0, psi2), basis_label(res, r2)) == (
        -1, "e_0", "a1",
    )


def test_differential_degree_two(a_n):
    pres, basis, res, cx = a_n[3]
    terms = res.differential(2)
    (w,) = [e for e in res.ap[2] if ap_label(res, e) == "a1*a2"]
    got = {(c, basis_label(res, left), middle_label(res, 1, psi),
            basis_label(res, right))
           for (left, psi, right), c in terms[w.pos].items()}
    assert got == {(1, "e_0", "a1", "a2"), (1, "a1", "a2", "e_2")}


def test_differential_degree_three_signs(a_n):
    pres, basis, res, cx = a_n[3]
    terms = res.differential(3)
    (w,) = [e for e in res.ap[3] if ap_label(res, e) == "a1*a2*a3"]
    got = [(c, basis_label(res, left), middle_label(res, 2, psi),
            basis_label(res, right))
           for (left, psi, right), c in terms[w.pos].items()]
    assert got == [
        (1, "a1", "a2*a3", "e_3"),
        (-1, "e_0", "a1*a2", "a3"),
    ]


def test_d_squared_zero_and_exact(a_n):
    for n in a_n:
        pres, basis, res, cx = a_n[n]
        assert res.d_squared_is_zero()
        assert res.homology_dims() == [0] * (res.top + 2)


def test_hereditary_complex_is_short(a_n):
    pres, basis, res, cx = a_n[1]
    assert res.top == 1
    assert res.homology_dims() == [0, 0, 0]


def test_wide_divisor_sets():
    """Even-degree elements can have many divisors (here five): the
    multi-term differential and both dimension routes must still agree."""
    n, rel_len, step = 13, 5, 2
    pres = parse(line_text(n, rel_len, range(0, n - rel_len + 1, step)))
    from stringcoh import CochainComplex, Resolution, basis_P
    basis = basis_P(pres)
    res = Resolution(pres, basis)
    sizes = {len(res.sub(w)) for w in res.ap[2]}
    assert 5 in sizes
    assert res.d_squared_is_zero()
    assert all(h == 0 for h in res.homology_dims())
    cx = CochainComplex(res)
    assert cx.hh_table().agree


def test_degree_cap():
    text = ("vertex 0 1 2 3 4 5\n"
            + "".join(f"arrow a{i} {i} {i + 1}\n" for i in range(5))
            + "relation a0 a1\nrelation a1 a2\nrelation a2 a3\nrelation a3 a4\n")
    pres = parse(text)
    from stringcoh import Resolution, basis_P
    basis = basis_P(pres)
    full = Resolution(pres, basis)
    capped = Resolution(pres, basis, max_degree=2)
    assert full.top == 5
    assert capped.top == 2
    assert supports(capped, 2) == supports(full, 2)


@pytest.mark.parametrize("n", [40, 80])
def test_ap_two_lane_closed_form(n):
    """|AP_k(a_n)| = 2(n - k + 1) for 2 <= k <= n: one chain per lane
    and start."""
    layers = ap_sets(parse(a_n_text(n)))
    assert [len(layer) for layer in layers] == (
        [n + 1, 2 * n] + [2 * (n - k + 1) for k in range(2, n + 1)])
    if n == 80:
        assert sum(len(layer) for layer in layers) == 6561


def test_ap_deep_line():
    """A line of 1218 arrows: 58 blocks of ten length-3 relations, each
    overlapping the next in one arrow.  Inside a block the chains run to
    the block's end and never cross into the next block."""
    blocks, per_block = 58, 10
    n = blocks * (2 * per_block + 1)
    starts = [b * (2 * per_block + 1) + 2 * i
              for b in range(blocks) for i in range(per_block)]
    layers = ap_sets(parse(line_text(n, 3, starts)))
    assert [len(layer) for layer in layers] == (
        [n + 1, n] + [blocks * (per_block - d + 2)
                      for d in range(2, per_block + 2)])


def test_ap_rejects_non_minimal_generators():
    text = ("vertex 0 1 2 3\narrow a 0 1\narrow b 1 2\narrow c 2 3\n"
            "relation a b\nrelation a b c\n")
    pres = parse(text)
    with pytest.raises(ApConstructionError, match="not minimal") as err:
        Resolution(pres, basis_P(pres))
    assert pres.quiver.format_word(err.value.support) == "a*b*c"


@pytest.mark.parametrize("drop_mirrored, message", [
    (True, "forward support with no mirrored chain"),
    (False, "mirrored support with no forward chain"),
])
def test_ap_runs_that_disagree_raise(a_n, monkeypatch, drop_mirrored, message):
    pres, basis, _, _ = a_n[3]
    real = Resolution._chain_run

    def drop_top(self, cap, mirrored):
        layers = real(self, cap, mirrored)
        return layers[:-1] if mirrored == drop_mirrored else layers

    monkeypatch.setattr(Resolution, "_chain_run", drop_top)
    with pytest.raises(ApConstructionError, match=message) as err:
        Resolution(pres, basis)
    assert pres.quiver.format_word(err.value.support) == "a1*a2*a3"


def test_ap_support_with_two_chains_raises(a_n, monkeypatch):
    pres, basis, _, _ = a_n[3]
    real = resolution._greedy_chains

    def doubled(relations, cap):
        layers = real(relations, cap)
        support, chain = layers[-1][0]
        layers[-1].append((support, chain[::-1]))
        return layers

    monkeypatch.setattr(resolution, "_greedy_chains", doubled)
    with pytest.raises(ApConstructionError, match="two different chains"):
        Resolution(pres, basis)


def test_maps_preserve_blocks(corpus, a_n):
    """Every nonzero entry of the differentials and of the augmentation
    stays inside one block: its row and its column have the same full
    path l * w * r.  The block solve of the solved-lift oracle relies on
    this, and the blocks of tests_support.blocks partition each bimodule
    space."""
    towers = [(f"seed {seed}", res) for seed, _, _, res, _ in corpus]
    towers += [(f"a_n({n})", a_n[n][2]) for n in sorted(a_n)]
    for name, res in towers:
        full = []
        for n in res.degrees():
            space = res.bimodule_space(n)[0]
            full.append([full_path(res, n, t) for t in space])
            by_path = blocks(res, n)
            assert set(by_path) == set(full[n]), name
            assert (sorted(j for js in by_path.values() for j in js)
                    == list(range(len(space)))), name
            assert all(full[n][j] == p for p, js in by_path.items() for j in js)
        for i, j, _ in res.mu_matrix().items():
            assert basis_path(res.basis, i) == full[0][j], name
        for n in range(1, res.top + 1):
            for i, j, _ in res.d_matrix(n).items():
                assert full[n - 1][i] == full[n][j], f"{name} degree {n}"
