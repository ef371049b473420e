import dataclasses
import importlib
import sys
from collections import Counter
from fractions import Fraction

import pytest

from stringcoh import checks, parse
from stringcoh.cup import (
    Cochain,
    chain_map_audit,
    cocycle_basis,
    cohomology_basis,
    cup,
    cup_table,
    is_coboundary,
    is_cocycle,
    leibniz_slots,
    lift_tails,
    normalize_geq,
    normalize_leq,
    splittings,
)
from conftest import a_n_text, build_tower
from stringcoh.generate import generate, generate_dsl
from stringcoh.linalg import CertificateError, RationalMatrix
from tests_support import (
    ap_label,
    apply,
    augmented_cohomology_basis,
    basis_label,
    basis_path,
    bimodule_extension,
    comparison_matrix,
    comparison_terms,
    cup_with_lift,
    decompose,
    dense,
    dense_is_cocycle,
    dense_lift_values,
    fmt,
    formula_audit,
    global_lift_audit,
    lift_terms,
    middle_label,
    mirrored_phi_inv,
    odd_positions_max,
    path_mult,
    scan_terms_at,
    solved_lift_matrices,
    sparse_visits,
    support,
    supports,
    terms_at,
)

cup_module = importlib.import_module("stringcoh.cup")


def basis_cochain(cx, degree, rho_label, gamma_label):
    pres = cx.res.pres
    for i, p in enumerate(cx.pairs(degree)):
        if (ap_label(cx.res, p.rho) == rho_label
                and fmt(pres, basis_path(cx.basis, p.gamma_id))
                == gamma_label):
            return Cochain(degree, {i: Fraction(1)})
    raise AssertionError("no such pair")


def test_comparison_degree_zero_single_term(a_n):
    pres, basis, res, cx = a_n[3]
    f = basis_cochain(cx, 2, "a2*a3", "b2*a3")
    (w,) = [e for e in res.ap[2] if ap_label(res, e) == "a2*a3"]
    terms = comparison_terms(cx, f, 0, w)
    assert len(terms) == 1
    ((left, psi, right),) = terms
    assert basis_path(basis, left).is_trivial
    assert support(res.quiver, res.ap[0][psi]).is_trivial
    assert basis_label(res, right) == "b2*a3"


def test_comparison_vanishes_off_support(a_n):
    pres, basis, res, cx = a_n[3]
    f = basis_cochain(cx, 2, "a2*a3", "b2*a3")
    (w,) = [e for e in res.ap[3] if ap_label(res, e) == "b1*b2*b3"]
    assert comparison_terms(cx, f, 1, w) == {}


def test_comparison_worked_example(a_n):
    """Degree-1 lift of a degree-2 cochain on the full-length support."""
    pres, basis, res, cx = a_n[3]
    f = basis_cochain(cx, 2, "a2*a3", "b2*a3")
    (w,) = [e for e in res.ap[3] if ap_label(res, e) == "a1*a2*a3"]
    terms = comparison_terms(cx, f, 1, w)
    assert len(terms) == 1
    ((left, psi, right),) = terms
    assert basis_path(basis, left).is_trivial
    assert middle_label(res, 1, psi) == "a1"
    assert basis_label(res, right) == "b2*a3"
    # that basis cochain is not a cocycle, so the audit refuses it ...
    assert not is_cocycle(cx, f)
    with pytest.raises(ValueError):
        chain_map_audit(cx, f)
    # ... while a genuine cocycle touching the same supports passes
    f2 = basis_cochain(cx, 2, "a1*a2", "b1*a2")
    assert is_cocycle(cx, f2)
    assert chain_map_audit(cx, f2)


def test_comparison_even_degree_collapses(corpus):
    """For even lift degrees the divisor sum has exactly one term per
    value: the flush-left head itself."""
    for _, pres, _, res, cx in corpus[:25]:
        for m in range(1, res.top):
            for f in cocycle_basis(cx, m)[:3]:
                for n in range(2, res.top - m + 1, 2):
                    for w in res.ap[n + m]:
                        head, u, tail = decompose(res, w, n, m)
                        q = res.quiver
                        vals = scan_terms_at(cx, f, support(q, tail))
                        terms = comparison_terms(cx, f, n, w)
                        expect = set()
                        for c, gamma in vals:
                            rg = path_mult(cx.basis, u,
                                           basis_path(cx.basis, gamma))
                            if rg is not None:
                                expect.add((c, support(q, head), rg))
                        got = {(c, support(q, res.ap[n][psi]),
                                basis_path(cx.basis, right))
                               for (_, psi, right), c in terms.items()}
                        assert got == expect
                        assert all(basis_path(cx.basis, left).is_trivial
                                   for left, _, _ in terms)


def test_chain_map_audit_all_basis_cocycles_quadratic(a_n):
    for n in a_n:
        pres, basis, res, cx = a_n[n]
        for m in range(1, res.top + 1):
            for f in cocycle_basis(cx, m):
                assert chain_map_audit(cx, f)


def test_chain_map_audit_rejects_non_cocycle(a_n):
    pres, basis, res, cx = a_n[3]
    bad = basis_cochain(cx, 1, "a1", "b1")  # not in the kernel
    assert not is_cocycle(cx, bad)
    with pytest.raises(ValueError):
        chain_map_audit(cx, bad)


def test_chain_map_audit_zero_cochain(a_n):
    pres, basis, res, cx = a_n[3]
    assert chain_map_audit(cx, Cochain(1))


def test_cochain_drops_zero_coefficients(a_n):
    """A Cochain built with an explicit zero coefficient stores none, so
    the sparse sums of is_cocycle and of a product never meet a stored
    zero: on a_n(3), at a column j of matrix(2) that is nonzero,
    is_cocycle(cx, Cochain(1, {j: 0})) raised KeyError: 1."""
    pres, basis, res, cx = a_n[3]
    j = next(j for j, col in enumerate(cx.columns(2)) if col)
    assert Cochain(1, {j: 0}).coeffs == {}
    assert is_cocycle(cx, Cochain(1, {j: 0}))
    g = cocycle_basis(cx, 1)[0]
    assert cup(cx, g, Cochain(1, {j: 0})).is_zero()
    assert cup(cx, Cochain(1, {j: 0}), g).is_zero()


def test_formula_lift_gap_on_interior_diagonal():
    """The displayed lift formula is not a chain map for a degree-1
    diagonal cocycle whose arrow lies strictly inside a length-3
    relation; the Leibniz-corrected lift and the solved lift are."""
    pres = parse(
        "vertex 0 1 2 3\n"
        "arrow u 0 1\narrow v 1 2\narrow w 2 3\n"
        "relation u v w\n"
    )
    basis, res, cx = build_tower(pres)
    f = basis_cochain(cx, 1, "v", "v")
    assert is_cocycle(cx, f)
    assert not formula_audit(cx, f)
    assert chain_map_audit(cx, f)
    # F_1(1 (x) uvw (x) 1) = 1 (x) u (x) vw, where the displayed formula
    # gives 0 because f(w) = 0
    (rel,) = res.ap[2]
    assert comparison_terms(cx, f, 1, rel) == {}
    (((left, psi, right), c),) = lift_terms(cx, f, 1, rel).items()
    assert c == 1 and basis_path(basis, left).is_trivial
    assert middle_label(res, 1, psi) == "u"
    assert basis_label(res, right) == "v*w"
    lifts = solved_lift_matrices(cx, f)
    for n in range(1, len(lifts)):
        lhs = res.d_matrix(n) @ lifts[n]
        rhs = lifts[n - 1] @ res.d_matrix(n + 1)
        assert lhs == rhs


def test_lift_equals_formula_where_formula_is_chain_map(corpus):
    """The Leibniz terms only change degree-1 lifts on which the
    displayed formula fails its commuting squares."""
    for seed, _, _, res, cx in corpus:
        for f in cocycle_basis(cx, 1):
            if formula_audit(cx, f):
                for n in range(res.top):
                    assert (comparison_matrix(cx, f, n, lift_terms)
                            == comparison_matrix(cx, f, n, comparison_terms)
                            ), f"seed {seed} degree {n}"


def test_formula_is_the_lift_off_the_slot_arrows(corpus, a_n):
    """A degree-1 cocycle with no value on any Leibniz slot arrow
    (_slot_arrows) has lift_terms equal to comparison_terms on every
    generator of every lift degree, so its walk of the displayed formula
    is its lift_terms walk.  Every degree-1 basis cocycle of
    generate(0..99), the 24/48 corpus of seeds 0-12 and a_n(1..8); the
    corpora also hold cocycles that meet a slot arrow, and on some of
    them the two formulas differ."""
    avoiding = differing = 0
    for name, _, cx in walk_towers(corpus, a_n):
        arrows = cup_module._slot_arrows(cx)
        for k, f in enumerate(cocycle_basis(cx, 1)):
            same = all(lift_terms(cx, f, n, w) == comparison_terms(cx, f, n, w)
                       for n in range(cx.top) for w in cx.res.ap[n + 1])
            if arrows.isdisjoint(supports(cx, f)):
                assert same, f"{name} cocycle {k}"
                avoiding += 1
            else:
                differing += not same
    assert avoiding and differing


def test_generator_audit_matches_global_oracle(corpus, a_n):
    """Auditing a lift on the generators 1 (x) w (x) 1 decides exactly as
    comparing the realized matrices, for both lifts, on every basis
    cocycle, including those where the displayed formula fails."""
    towers = [(f"seed {seed}", cx) for seed, _, _, _, cx in corpus]
    towers += [(f"a_n({n})", a_n[n][3]) for n in sorted(a_n)]
    red = 0
    for name, cx in towers:
        for m in range(1, cx.top + 1):
            for k, f in enumerate(cocycle_basis(cx, m)):
                where = f"{name} degree {m} cocycle {k}"
                assert (chain_map_audit(cx, f)
                        == global_lift_audit(cx, f, lift_terms)), where
                verdict = formula_audit(cx, f)
                assert verdict == global_lift_audit(cx, f, comparison_terms), where
                red += not verdict
    assert red  # the oracle also met failing squares


def walk_towers(corpus, a_n):
    """(name, presentation, complex) of generate(0..99), the 24/48 corpus
    of seeds 0-12 and a_n(1..8)."""
    towers = [(f"seed {seed}", pres, cx)
              for seed, pres, _, _, cx in corpus]
    for s in range(13):
        pres = generate(s, max_vertices=24, max_arrows=48)
        towers.append((f"seed {s} at 24/48", pres, build_tower(pres)[2]))
    for n in range(1, 9):
        pres = a_n[n][0] if n in a_n else parse(a_n_text(n))
        cx = a_n[n][3] if n in a_n else build_tower(pres)[2]
        towers.append((f"a_n({n})", pres, cx))
    return towers


def nonzero_items(lift):
    return [[(w, v) for w, v in layer.items() if v] for layer in lift]


def test_sparse_lift_walk_matches_dense_oracle(corpus, a_n):
    """The lift walk, which visits only generators where a side of a
    square can be nonzero and walks the basis cocycles of one degree
    together, agrees with the dense walk over every generator, for both
    lifts, on every basis cocycle:
    - walked alone, it reaches the dense verdict and, for the Leibniz
      lift, every nonzero generator value, in AP order;
    - walked with its whole degree, it names the first cocycle whose
      dense walk fails, and the Leibniz walk keeps the dense values of
      every cocycle when none does;
    - each lift is zero outside the generators lift_tails lists under a
      support of the cocycle.
    On every red input check_chain_maps names the first (m, k) whose
    dense walk of the displayed formula fails.  The default corpus (red
    seeds such as 88 included), the 24/48 corpus of seeds 0-12 and
    a_n(1..8)."""
    red = witnesses = 0
    for name, pres, cx in walk_towers(corpus, a_n):
        first = None
        for m in range(1, cx.top + 1):
            fs = cocycle_basis(cx, m)
            if not fs:
                continue
            for leibniz, terms in ((False, comparison_terms),
                                   (True, lift_terms)):
                where = f"{name} degree {m} {terms.__name__}"
                dense = [dense_lift_values(cx, f, terms) for f in fs]
                for k, f in enumerate(fs):
                    for n in range(cx.top - m + 1):
                        tails = lift_tails(cx, n, m)
                        nonzero = {i for i, w in enumerate(cx.res.ap[n + m])
                                   if terms(cx, f, n, w)}
                        assert nonzero <= {i for s in supports(cx, f)
                                           for i in tails.get(s, ())}, (
                            f"{where} cocycle {k} n={n}")
                    failed, lifts = cup_module._walk(cx, [f], leibniz)
                    assert (failed is None) == (dense[k] is not None), where
                    if leibniz and dense[k] is not None:
                        assert ([list(layer.items()) for layer in lifts[0]]
                                == nonzero_items(dense[k])), where
                bad = [k for k, d in enumerate(dense) if d is None]
                failed, lifts = cup_module._walk(cx, fs, leibniz)
                assert failed == (bad[0] if bad else None), where
                assert len(lifts) == (len(fs) if leibniz and not bad
                                      else 0), where
                for k, lift in enumerate(lifts):
                    assert ([list(layer.items()) for layer in lift]
                            == nonzero_items(dense[k])), f"{where} cocycle {k}"
                red += len(bad)
                if bad and not leibniz and first is None:
                    first = (m, bad[0])
        if first is not None:
            result = checks.Auditor(pres).check_chain_maps()
            assert not result.passed, name
            assert result.detail.startswith(
                f"degree {first[0]} cocycle {first[1]}:"), name
            witnesses += 1
    assert red and witnesses  # failing squares were met too


def test_lift_tails_lists_tails_and_slot_arrows(corpus, a_n):
    """For m = 1 and n >= 1, lift_tails(n, 1) lists w under the arrow a,
    once, exactly when a is w's tail or leibniz_slots(n)[w] has a slot
    at a: an interior arrow without a slot carries no Leibniz term, and
    some interior arrows have none.  On generate(0..99), the 24/48
    corpus of seeds 0-12 and a_n(1..8)."""
    unslotted = 0
    for name, _, cx in walk_towers(corpus, a_n):
        for n in range(1, cx.top):
            tails = lift_tails(cx, n, 1)
            listed = {(a, i) for a, ws in tails.items() for i in ws}
            assert len(listed) == sum(map(len, tails.values())), name
            want = {(tail, i)
                    for i, (tail, _, _) in enumerate(splittings(cx, n, 1))}
            want |= {(slot[2], i)
                     for i, slots in enumerate(leibniz_slots(cx, n))
                     for slot in slots}
            assert listed == want, f"{name} n={n}"
            unslotted += len({(a, i) for i, w in enumerate(cx.res.ap[n + 1])
                              for a in w.word[1:-1]} - want)
    assert unslotted


@pytest.mark.parametrize("pres", [parse(a_n_text(5)), generate(19)],
                         ids=["a_n(5)", "19"])
def test_only_the_leibniz_walk_returns_lifts(pres):
    """The walk of the displayed formula, which is only audited, returns
    no lift, even where every cocycle passes; the walk of the Leibniz
    lift returns each passing cocycle's whole lift, the dense values of
    lift_terms.  On a_n(5), whose relations are quadratic, both walks
    pass every degree."""
    cx = build_tower(pres)[2]
    passed = 0
    for m in range(1, cx.top + 1):
        fs = cocycle_basis(cx, m)
        if not fs:
            continue
        failed, lifts = cup_module._walk(cx, fs, False)
        assert lifts == [], m
        passed += failed is None
        failed, lifts = cup_module._walk(cx, fs, True)
        assert failed is None and len(lifts) == len(fs), m
        for f, lift in zip(fs, lifts):
            assert ([list(layer.items()) for layer in lift]
                    == nonzero_items(dense_lift_values(cx, f, lift_terms)))
    assert passed


def test_sparse_lift_walk_evaluates_fewer_generators(monkeypatch):
    """On a_n(7) the sparse walk evaluates the lift formula on fewer
    generators than the dense walk, for the same verdicts.  Both evaluate
    through _layer_values: the walk once per cocycle and layer, the dense
    walk once per generator through lift_terms."""
    cx = build_tower(parse(a_n_text(7)))[2]
    calls = []
    real = cup_module._layer_values

    def counted(cx, rows, slots, vals, positions):
        calls.extend(positions)
        return real(cx, rows, slots, vals, positions)

    monkeypatch.setattr(cup_module, "_layer_values", counted)
    degrees = [fs for m in range(1, cx.top + 1)
               if (fs := cocycle_basis(cx, m))]
    for fs in degrees:
        assert cup_module._walk(cx, fs, True)[0] is None
    sparse = len(calls)
    calls.clear()
    for fs in degrees:
        assert all(dense_lift_values(cx, f, lift_terms) is not None
                   for f in fs)
    assert 0 < sparse < len(calls)


def test_walk_visits_the_sparse_generators_and_compares_each_square(
        corpus, a_n, monkeypatch):
    """The walk of one degree's basis cocycles evaluates each passing
    lift at exactly the generators of the sparse rule
    (tests_support.sparse_visits): in lift degree n, those lift_tails(n, m)
    lists under a support of the cocycle and, for n >= 1, the cofaces of
    every generator where the lift is nonzero one degree down, in AP
    order.  Every visited generator has its square compared: one
    augment per visit in degree 0, two apply_map per visit above.  Both
    lifts, every basis cocycle walked to the end, on generate(0..99), the
    24/48 corpus of seeds 0-12 and a_n(1..8)."""
    visits = []
    real = cup_module._layer_values

    def recorded(cx, rows, slots, vals, positions):
        visits.append((vals, rows, list(positions)))
        return real(cx, rows, slots, vals, positions)

    squares = Counter()

    def counted(name, fn):
        def wrapper(*args):
            squares[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(cup_module, "_layer_values", recorded)
    monkeypatch.setattr(cup_module, "apply_map",
                        counted("apply_map", cup_module.apply_map))
    monkeypatch.setattr(cup_module, "augment",
                        counted("augment", cup_module.augment))
    compared = 0
    for name, _, cx in walk_towers(corpus, a_n):
        for m in range(1, cx.top + 1):
            fs = cocycle_basis(cx, m)
            if not fs:
                continue
            # the walk reads the rows of lift degree n off splittings
            degree_of = {id(splittings(cx, n, m)): n
                         for n in range(cx.top - m + 1)}
            for leibniz, terms in ((False, comparison_terms),
                                   (True, lift_terms)):
                expected = [sparse_visits(cx, f, terms) for f in fs]
                visits.clear()
                squares.clear()
                failed, _ = cup_module._walk(cx, fs, leibniz)
                # distinct cocycles have distinct support indexes
                indexes = [cup_module._support_index(cx, f) for f in fs]
                by_cocycle = {}
                got = [[] for _ in fs]
                for vals, rows, positions in visits:
                    n = degree_of[id(rows)]
                    if id(vals) not in by_cocycle:
                        by_cocycle[id(vals)] = indexes.index(vals)
                    k = by_cocycle[id(vals)]
                    assert n == len(got[k]), name
                    got[k].append(positions)
                done = range(len(fs) if failed is None else failed)
                for k in done:
                    assert got[k] == expected[k], f"{name} degree {m} {k}"
                if failed is None:
                    at_zero = sum(len(v[0]) for v in got)
                    above = sum(len(p) for v in got for p in v[1:])
                    assert squares == Counter(
                        augment=at_zero, apply_map=2 * above), name
                    compared += at_zero + above
    assert compared


def test_solved_lift_is_bimodule_chain_map(corpus):
    """Each matrix of a solved lift is the bimodule extension of its own
    generator columns, and together they form a chain map lifting f, on
    every cohomology representative where the displayed formula fails.
    Solving the global system column by column over every basis triple
    gives a chain map of vector spaces that is not always one of
    bimodules."""
    towers = [(f"seed {seed}", cx) for seed, _, _, _, cx in corpus]
    for seed in (5, 11):
        pres = generate(seed, max_vertices=24, max_arrows=48)
        towers.append((f"seed {seed} at 24/48", build_tower(pres)[2]))
    solved = 0
    for name, cx in towers:
        res = cx.res
        for m in range(1, cx.top + 1):
            for f in cohomology_basis(cx, m):
                if formula_audit(cx, f):
                    continue
                lifts = solved_lift_matrices(cx, f)
                solved += 1
                for n, mat in enumerate(lifts):
                    assert mat == bimodule_extension(res, mat, n, n + m), (
                        f"{name}: degree-{m} lift, degree {n}")
                for n in range(1, len(lifts)):
                    assert (res.d_matrix(n) @ lifts[n]
                            == lifts[n - 1] @ res.d_matrix(n + m))
    assert solved


def test_cup_with_zero_is_zero(a_n):
    pres, basis, res, cx = a_n[3]
    g = cocycle_basis(cx, 1)[0]
    assert cup(cx, g, Cochain(1)).is_zero()
    assert cup(cx, Cochain(1), g).is_zero()


def test_cup_rejects_degree_zero(a_n):
    pres, basis, res, cx = a_n[3]
    with pytest.raises(ValueError):
        cup(cx, Cochain(0), Cochain(1))


def test_normalize_rejects_degree_zero(a_n):
    """Degree-0 pairs carry no label, so neither normalization is defined
    there; both raise ValueError on the unit."""
    cx = a_n[3][3]
    (unit,) = cocycle_basis(cx, 0)
    for norm in (normalize_leq, normalize_geq):
        with pytest.raises(ValueError, match="positive degrees"):
            norm(cx, unit)


def test_cup_rejects_a_non_cocycle_on_either_side(a_n):
    cx = a_n[3][3]
    good, bad = cocycle_basis(cx, 1)[0], basis_cochain(cx, 1, "a1", "b1")
    for g, f in ((bad, good), (good, bad)):
        with pytest.raises(ValueError, match="expected a cocycle"):
            cup(cx, g, f)


def test_cup_table_indexes_each_left_factor_once(monkeypatch):
    """cup_table builds the support index of a left factor once, not once
    per product, and checks no cocycle per product: walking the
    representatives' lifts (rep_lifts) has checked every one."""
    real_index, real_check = (cup_module._support_index,
                              cup_module._require_cocycle)
    indexed, checked = [], []

    def index(cx, f):
        indexed.append(f)
        return real_index(cx, f)

    def check(cx, f):
        checked.append(f)
        return real_check(cx, f)

    for seed in (0, 2):
        cx = build_tower(generate(seed, max_vertices=24, max_arrows=48))[2]
        reps = [f for m in range(1, cx.top + 1)
                for f in cohomology_basis(cx, m)]
        for m in range(1, cx.top + 1):
            cup_module.rep_lifts(cx, m)
        monkeypatch.setattr(cup_module, "_support_index", index)
        monkeypatch.setattr(cup_module, "_require_cocycle", check)
        indexed.clear()
        checked.clear()
        report = cup_table(cx)
        monkeypatch.undo()
        assert report.pairs_checked > len(reps) and not checked
        assert [f for f in reps if f.degree < cx.top] == indexed, seed


def test_cup_of_coboundary_is_coboundary(a_n):
    pres, basis, res, cx = a_n[3]
    # a coboundary: the image of a degree-1 basis cochain under the map
    h = basis_cochain(cx, 1, "a1", "b1")
    img = apply(cx.matrix(2), dense(h.coeffs, len(cx.pairs(1))))
    g = Cochain(2, {i: v for i, v in enumerate(img) if v})
    assert is_cocycle(cx, g) and is_coboundary(cx, g)[0]
    for f in cocycle_basis(cx, 1):
        assert is_coboundary(cx, cup(cx, g, f))[0]
        assert is_coboundary(cx, cup(cx, f, g))[0]


def test_cup_bilinear_spot(a_n):
    pres, basis, res, cx = a_n[3]
    f1, f2 = cocycle_basis(cx, 1)[:2]
    g = cocycle_basis(cx, 1)[2]
    both = Cochain(1, dict(f1.coeffs))
    for i, c in f2.coeffs.items():
        both.coeffs[i] = both.coeffs.get(i, Fraction(0)) + c
    lhs = cup(cx, g, both)
    a = cup(cx, g, f1)
    b = cup(cx, g, f2)
    summed = dict(a.coeffs)
    for i, c in b.coeffs.items():
        v = summed.get(i, Fraction(0)) + c
        if v:
            summed[i] = v
        else:
            summed.pop(i, None)
    assert lhs.coeffs == summed


def test_normalize_keeps_unshared_pairs(a_n):
    pres, basis, res, cx = a_n[3]
    f = basis_cochain(cx, 3, "a1*a2*a3", "b1*a2*b3")  # -(0,0)-
    assert normalize_leq(cx, f).coeffs == f.coeffs
    assert normalize_geq(cx, f).coeffs == f.coeffs


def test_sub_of_different_degrees_raises():
    with pytest.raises(ValueError, match="different degrees"):
        Cochain(1, {0: 1}).sub(Cochain(2, {0: 1}))
    assert Cochain(1, {0: 1}).sub(Cochain(1, {0: 1})).is_zero()


def test_normalize_kills_shared_both(a_n):
    pres, basis, res, cx = a_n[3]
    f = basis_cochain(cx, 3, "a1*a2*a3", "a1*b2*a3")  # (1,1) in degree 3
    lo = normalize_leq(cx, f)
    assert lo.is_zero()
    assert is_coboundary(cx, f.sub(lo))[0]


def test_normalize_slides_shared_first(a_n):
    pres, basis, res, cx = a_n[3]
    f = basis_cochain(cx, 2, "a1*a2", "a1*b2")  # (1,0)+ basis element
    lo = normalize_leq(cx, f)
    (idx,) = lo.coeffs
    target = cx.pairs(2)[idx]
    assert ap_label(res, target.rho) == "a2*a3"
    assert fmt(pres, basis_path(basis, target.gamma_id)) == "b2*a3"
    assert lo.coeffs[idx] == -1  # (-1)^(m-1) at even degree
    assert is_coboundary(cx, f.sub(lo))[0]


def test_normalize_termwise_class_preserving(corpus):
    """f - f<= and f - f>= are coboundaries for every basis cochain."""
    for _, _, _, res, cx in corpus[:20]:
        for m in range(1, res.top + 1):
            for i in range(len(cx.pairs(m))):
                f = Cochain(m, {i: Fraction(1)})
                for norm in (normalize_leq, normalize_geq):
                    assert is_coboundary(cx, f.sub(norm(cx, f)))[0]


def test_normalized_cocycle_keeps_class(corpus):
    for _, _, _, res, cx in corpus[:25]:
        for m in range(1, res.top + 1):
            for f in cocycle_basis(cx, m):
                lo = normalize_leq(cx, f)
                hi = normalize_geq(cx, f)
                assert is_cocycle(cx, lo) and is_cocycle(cx, hi)
                assert is_coboundary(cx, f.sub(lo))[0]
                assert is_coboundary(cx, f.sub(hi))[0]


def test_slide_table_inverse_matches_the_mirrored_slide(corpus):
    """The inverse of cup.slides(cx, m) equals phi's mirror image, built by
    its own predecessor search, pair by pair; the two tables are mutually
    inverse and pair (1,0)+ with +(0,1) and (1,0)-+ with +-(0,1).  On
    a_n(1..10), generate(0..99) and generate(0..12, 24, 48)."""
    partner = {"(1,0)+": "+(0,1)", "(1,0)-+": "+-(0,1)"}
    towers = [cx for _, _, _, _, cx in corpus]
    towers += [build_tower(generate(s, max_vertices=24, max_arrows=48))[2]
               for s in range(13)]
    towers += [build_tower(parse(a_n_text(n)))[2] for n in range(1, 11)]
    slid = 0
    for cx in towers:
        for m in range(1, cx.top + 1):
            pairs = cx.pairs(m)
            forward, back = cup_module.slides(cx, m)
            assert back == {j: mirrored_phi_inv(cx, pair)
                            for j, pair in enumerate(pairs)
                            if pair.label in partner.values()}
            assert {j: i for i, j in back.items()} == forward
            assert all(partner[pairs[i].label] == pairs[j].label
                       for i, j in forward.items())
            slid += len(forward)
    assert slid == 148


def _is_multiple_of(vec: dict, col: dict) -> bool:
    """For two sparse vectors on the same keys."""
    k = min(vec)
    return all(vec[i] * col[k] == col[i] * vec[k] for i in vec)


def test_normalizations_differ_by_one_column_termwise(corpus):
    """On every pair i that normalize_leq or normalize_geq moves or
    drops, e_i - N(e_i) is a multiple of one column of the previous
    cochain map, so each basis cochain keeps its class without an
    elimination.  On a_n(1..8) and generate(0..99)."""
    towers = [cx for _, _, _, _, cx in corpus]
    towers += [build_tower(parse(a_n_text(n)))[2] for n in range(1, 9)]
    moved = 0
    for cx in towers:
        for m in range(1, cx.top + 1):
            by_support = {}
            for col in cx.columns(m):
                by_support.setdefault(frozenset(col), []).append(col)
            for i in range(len(cx.pairs(m))):
                e = Cochain(m, {i: 1})
                for norm in (normalize_leq, normalize_geq):
                    diff = e.sub(norm(cx, e)).coeffs
                    if not diff:
                        continue
                    moved += 1
                    assert any(_is_multiple_of(diff, col) for col in
                               by_support.get(frozenset(diff), ())), (m, i)
    assert moved == 405


def test_cup_table_three_steps(a_n):
    pres, basis, res, cx = a_n[3]
    report = cup_table(cx)
    assert report.all_zero
    assert report.class_dims == {1: 3, 2: 0, 3: 2}
    assert report.pairs_checked == 25


def test_odd_divisor_positions_max_matches_oracle(corpus):
    """The cup report's odd_positions_max, read off the splittings scan,
    equals a fresh decompose-and-count at every w on generate(0..99),
    generate_dsl(0..12, 24, 48) and a_n(1..8)."""
    towers = [cx for _, _, _, _, cx in corpus]
    towers += [build_tower(parse(generate_dsl(
        seed, max_vertices=24, max_arrows=48)))[2] for seed in range(13)]
    towers += [build_tower(parse(a_n_text(n)))[2] for n in range(1, 9)]
    for cx in towers:
        assert cup_table(cx).odd_positions_max == odd_positions_max(cx)


def test_cup_table_tree_is_vacuous(tree_corpus):
    for _, _, _, _, cx in tree_corpus[:5]:
        report = cup_table(cx)
        assert all(d == 0 for d in report.class_dims.values())
        assert report.pairs_checked == 0
        assert report.all_zero


def test_cup_with_lift_matches_formula_when_valid(a_n):
    pres, basis, res, cx = a_n[3]
    for f in cocycle_basis(cx, 1):
        lifts = solved_lift_matrices(cx, f)
        for g in cocycle_basis(cx, 1):
            direct = cup(cx, g, f)
            via_lift = cup_with_lift(cx, g, lifts, 1)
            assert direct.coeffs == via_lift.coeffs


def test_solved_lift_products_vanish_on_gap_seed():
    """On seed 88 the displayed formula fails for some representative
    or for its >=-normalization.  The products of each such
    representative, evaluated on the solved lift of the tests' oracle,
    are coboundaries, as cup_table certifies on the audited lift."""
    pres = generate(88)
    basis, res, cx = build_tower(pres)
    assert cup_table(cx).all_zero
    solved = 0
    for m in range(1, cx.top + 1):
        for f in cohomology_basis(cx, m):
            if formula_audit(cx, f) and formula_audit(cx, normalize_geq(cx, f)):
                continue
            lifts = solved_lift_matrices(cx, f)
            solved += 1
            for n in range(1, cx.top - m + 1):
                for g in cohomology_basis(cx, n):
                    assert is_coboundary(cx, cup_with_lift(cx, g, lifts, m))[0]
    assert solved  # the solved lift really engaged


def test_normalized_products_vanish(certified):
    """The paper's vanishing argument multiplies a <=-normalized left
    factor by a >=-normalized right one.  Those products are coboundaries
    wherever cup_table certifies the plain ones, on the 100-seed corpus
    and on a_n(1..7)."""
    checked = 0
    for name, cx, _ in certified:
        assert cup_table(cx).all_zero, name
        reps = {m: cohomology_basis(cx, m) for m in range(1, cx.top + 1)}
        for n, gs in reps.items():
            for m, fs in reps.items():
                if n + m > cx.top:
                    continue
                for g in gs:
                    for f in fs:
                        prod = cup(cx, normalize_leq(cx, g),
                                   normalize_geq(cx, f))
                        assert is_coboundary(cx, prod)[0], name
                        checked += 1
    assert checked


def test_cohomology_basis_sizes_match_dims(corpus):
    for _, _, _, res, cx in corpus[:30]:
        dims = cx.hh_matrix()
        for m in range(1, res.top + 1):
            assert len(cohomology_basis(cx, m)) == dims[m]


def test_cohomology_basis_in_degree_zero(corpus):
    """Degree 0 receives no coboundaries, so every degree-0 cocycle is a
    representative, as many as hh_matrix counts: the unit on a connected
    input.  On a_n(1..8) and generate(0..99)."""
    towers = [cx for _, _, _, _, cx in corpus]
    towers += [build_tower(parse(a_n_text(n)))[2] for n in range(1, 9)]
    for cx in towers:
        reps = cohomology_basis(cx, 0)
        assert reps == cocycle_basis(cx, 0)
        assert len(reps) == cx.hh_matrix()[0]


def test_bases_are_empty_outside_the_degrees(a_n):
    """The cochain space is zero outside degrees 0..top, so both bases
    are empty there, as cx.pairs is; in degree -1 neither eliminates the
    degree-0 map, which does not exist.  On a_n(3)."""
    cx = a_n[3][3]
    for m in (-2, -1, cx.top + 1, cx.top + 2):
        assert cx.pairs(m) == []
        assert cocycle_basis(cx, m) == []
        assert cohomology_basis(cx, m) == []


def test_cohomology_basis_matches_the_augmented_oracle(corpus):
    """The representatives read off the free coordinates are those of one
    elimination of the degree-m cochain map augmented by every cocycle,
    cochain by cochain, in the 337 degrees 1..top of a_n(1..10),
    generate(0..99) and generate_dsl(0..12, 24, 48)."""
    towers = [cx for _, _, _, _, cx in corpus]
    towers += [build_tower(parse(generate_dsl(s, max_vertices=24,
                                              max_arrows=48)))[2]
               for s in range(13)]
    towers += [build_tower(parse(a_n_text(n)))[2] for n in range(1, 11)]
    degrees = 0
    for cx in towers:
        for m in range(1, cx.top + 1):
            assert (cohomology_basis(cx, m)
                    == augmented_cohomology_basis(cx, m)), m
            degrees += 1
    assert degrees == 337


def _certified_cochains(cx) -> list:
    """The cochains cup_table tests: every cocycle-basis element, its two
    normalized representatives, and every product of cohomology
    representatives, normalized and plain."""
    out = []
    reps = {}
    for m in range(1, cx.top + 1):
        for f in cocycle_basis(cx, m):
            out += [f, normalize_leq(cx, f), normalize_geq(cx, f)]
        reps[m] = cohomology_basis(cx, m)
    for gs in reps.values():
        for fs in reps.values():
            for g in gs:
                for f in fs:
                    out.append(cup(cx, normalize_leq(cx, g),
                                   normalize_geq(cx, f)))
                    out.append(cup(cx, g, f))
    return out


@pytest.fixture(scope="module")
def certified(corpus):
    """(name, cochain complex, certified cochains) over the 100-seed
    corpus and a_n(1..7)."""
    towers = [(f"seed {seed}", cx) for seed, _, _, _, cx in corpus]
    towers += [(f"a_{n}", build_tower(parse(a_n_text(n)))[2])
               for n in range(1, 8)]
    return [(name, cx, _certified_cochains(cx)) for name, cx in towers]


def test_sparse_is_cocycle_matches_dense_oracle(certified):
    """The sparse cocycle test agrees with the dense matrix-vector product
    on every certified cochain, and on one-coefficient perturbations of
    the cocycle-basis elements that leave the kernel."""
    perturbed = 0
    for name, cx, cochains in certified:
        for f in cochains:
            assert is_cocycle(cx, f) == dense_is_cocycle(cx, f) is True, name
        for m in range(1, cx.top):
            touched = sorted({j for _, j, _ in cx.matrix(m + 1).items()})
            for f in cocycle_basis(cx, m):
                for i in touched[:3]:
                    coeffs = dict(f.coeffs)
                    coeffs[i] = coeffs.get(i, 0) + 1
                    g = Cochain(m, {k: c for k, c in coeffs.items() if c})
                    assert not dense_is_cocycle(cx, g), name
                    assert not is_cocycle(cx, g), name
                    perturbed += 1
    assert perturbed


def test_terms_at_matches_scan(certified):
    """terms_at agrees with a scan on the certified cochains and on a
    cochain with a distinct value on every pair of each degree."""
    for name, cx, cochains in certified:
        full = [Cochain(m, {i: Fraction(i + 1)
                            for i in range(len(cx.pairs(m)))})
                for m in range(cx.top + 1)]
        for f in cochains + full:
            if f.degree > cx.top:
                continue
            for w in cx.res.ap[f.degree]:
                sup = support(cx.res.quiver, w)
                assert (list(terms_at(cx, f, w.pos))
                        == scan_terms_at(cx, f, sup)), name


def test_zero_cochain_is_coboundary_without_elimination(a_n, monkeypatch):
    def refuse(self, vec):
        raise AssertionError("in_column_space ran")

    monkeypatch.setattr(RationalMatrix, "in_column_space", refuse)
    for n in a_n:
        cx = a_n[n][3]
        for m in range(1, cx.top + 1):
            ok, pre = is_coboundary(cx, Cochain(m))
            assert ok and pre == {}
            pre = dense(pre, len(cx.pairs(m - 1)))
            assert len(pre) == len(cx.pairs(m - 1))
            assert not any(pre)
    # a nonzero cochain still takes the elimination
    with pytest.raises(AssertionError, match="in_column_space ran"):
        is_coboundary(cx, cocycle_basis(cx, 1)[0])


def test_is_coboundary_certifies_where_the_previous_map_is_zero():
    """In degree 0 and above the top a zero cochain is the image of zero;
    a nonzero one in degree 0 is certified by its first nonzero
    coordinate, since no cochain map lands there."""
    _, _, cx = build_tower(parse(
        "vertex a b c\narrow x a b\narrow y b c\nrelation x y\n"))
    assert is_coboundary(cx, Cochain(0)) == (True, {})
    assert is_coboundary(cx, Cochain(0, {0: 1})) == (False, {0: 1})
    assert is_coboundary(cx, Cochain(0, {2: 3, 1: -1})) == (False, {1: 1})
    assert is_coboundary(cx, Cochain(cx.top + 1)) == (True, {})


def counting_audits(monkeypatch):
    """Count the cocycles the generator walk (_walk) walks, by the lift it
    walks: calls[leibniz][id(f)], True for lift_terms and False for the
    displayed formula."""
    calls = {False: Counter(), True: Counter()}
    real = cup_module._walk

    def counted(cx, fs, leibniz):
        for f in fs:
            calls[leibniz][id(f)] += 1
        return real(cx, fs, leibniz)

    monkeypatch.setattr(cup_module, "_walk", counted)
    return calls


def test_run_all_formula_audits_each_basis_cocycle_once(monkeypatch):
    """check_chain_maps audits the displayed formula at most once per
    cocycle-basis element, and cup_table never does.  Seed 19 is red, so
    check_chain_maps stops at a witness."""
    calls = counting_audits(monkeypatch)
    auditor = checks.Auditor(generate(19))
    results = {r.name: r.passed for r in auditor.run_all()}
    assert not results["chain-maps"]
    cx = auditor.cx
    basis = [f for m in range(1, cx.top + 1) for f in cocycle_basis(cx, m)]
    formula = calls[False]
    assert sum(formula[id(f)] for f in basis) > 0
    assert all(formula[id(f)] <= 1 for f in basis)
    formula.clear()
    cup_table(cx)
    assert not formula


def formula_is_the_lift(cx, f) -> bool:
    """Whether the displayed formula is the lift of the basis cocycle f:
    in degree >= 2, and in degree 1 off the slot arrows."""
    return f.degree >= 2 or cup_module._slot_arrows(cx).isdisjoint(
        supports(cx, f))


@pytest.mark.parametrize("pres", [
    generate(19), generate(88),
    *(generate(s, max_vertices=24, max_arrows=48) for s in (3, 5, 11, 12))],
    ids=["19", "88", "3 at 24/48", "5 at 24/48", "11 at 24/48",
         "12 at 24/48"])
def test_run_all_walks_each_representative_once(pres, monkeypatch):
    """Under run_all, which stops chain-maps at its first witness on
    these red inputs, each cohomology representative is walked exactly
    once on lift_terms, and never on the displayed formula where that
    formula is its lift."""
    calls = counting_audits(monkeypatch)
    auditor = checks.Auditor(pres)
    results = {r.name: r.passed for r in auditor.run_all()}
    assert not results["chain-maps"] and results["cup-vanishing"]
    cx = auditor.cx
    reps = [f for m in range(1, cx.top + 1) for f in cohomology_basis(cx, m)]
    assert reps
    assert [calls[True][id(f)] for f in reps] == [1] * len(reps)
    assert all(not calls[False][id(f)] for f in reps
               if formula_is_the_lift(cx, f))


def basis_walks(cx, calls) -> Counter:
    """calls keyed by (leibniz, degree, position in cocycle_basis)."""
    where = {id(f): (m, k) for m in range(1, cx.top + 1)
             for k, f in enumerate(cocycle_basis(cx, m))}
    return Counter({(leibniz, *where[i]): c
                    for leibniz, counts in calls.items()
                    for i, c in counts.items()})


@pytest.mark.parametrize("pres", [parse(a_n_text(5)), generate(19),
                                  generate(88)],
                         ids=["a_n(5)", "19", "88"])
def test_cup_table_and_chain_maps_walk_alike_in_either_order(pres,
                                                            monkeypatch):
    """check_cup before check_chain_maps walks the same cocycles on the
    same lifts, as often, and reports the same, as the reverse order."""
    seen = []
    for first, second in (("check_chain_maps", "check_cup"),
                          ("check_cup", "check_chain_maps")):
        calls = counting_audits(monkeypatch)
        auditor = checks.Auditor(pres)
        results = {name: getattr(auditor, name)() for name in (first, second)}
        seen.append((results, basis_walks(auditor.cx, calls)))
    assert seen[0] == seen[1]
    assert seen[0][1]


@pytest.mark.parametrize("pres", [parse(a_n_text(7)), generate(19)],
                         ids=["a_n(7)", "19"])
def test_cup_equals_the_products_cup_table_evaluates(pres, monkeypatch):
    """cup(cx, g, f) on every pair of representatives is the product
    cup_table evaluates for it, and zero above the top."""
    products = []
    real = cup_module._evaluate

    def evaluate(cx, at, total, lift):
        products.append(real(cx, at, total, lift))
        return products[-1]

    monkeypatch.setattr(cup_module, "_evaluate", evaluate)
    cx = build_tower(pres)[2]
    report = cup_table(cx)
    evaluated = iter(list(products))
    checked = 0
    for e in report.entries:
        g = cohomology_basis(cx, e.deg_g)[e.idx_g]
        f = cohomology_basis(cx, e.deg_f)[e.idx_f]
        prod = cup(cx, g, f)
        if e.beyond_top:
            assert prod.is_zero()
        else:
            assert prod == next(evaluated)
            checked += 1
    assert checked and next(evaluated, None) is None


def test_cochain_is_a_plain_value():
    """A cochain holds its degree and coefficients and nothing else."""
    assert [f.name for f in dataclasses.fields(Cochain)] == ["degree",
                                                              "coeffs"]


def test_cup_table_audits_each_lift_it_evaluates(monkeypatch):
    """Every product cup_table evaluates reads a lift of its right factor
    that passed the generator walk on lift_terms in the same run, and
    each representative is audited once."""
    calls = counting_audits(monkeypatch)
    audited = []
    real_walk, real_evaluate = cup_module._walk, cup_module._evaluate

    def walk(cx, fs, leibniz):
        failed, lifts = real_walk(cx, fs, leibniz)
        if leibniz:
            for values in lifts:
                audited.extend(values)
        return failed, lifts

    evaluated = []

    def evaluate(cx, at, total, lift):
        evaluated.append(lift)
        return real_evaluate(cx, at, total, lift)

    monkeypatch.setattr(cup_module, "_walk", walk)
    monkeypatch.setattr(cup_module, "_evaluate", evaluate)
    for seed in (19, 88):
        cx = build_tower(generate(seed))[2]
        audited.clear()
        evaluated.clear()
        report = cup_table(cx)
        assert report.all_zero and evaluated
        assert all(any(lift is v for v in audited) for lift in evaluated)
        reps = [f for m in range(1, cx.top + 1)
                for f in cohomology_basis(cx, m)]
        assert [calls[True][id(f)] for f in reps] == [1] * len(reps)
        calls[True].clear()


def test_cup_table_reuses_the_formula_walks(monkeypatch):
    """A representative is walked once per tower, in rep_lifts, and where
    the displayed formula is its lift, check_chain_maps does not walk it
    on the formula again.  On a_n(7), whose relations are quadratic and
    leave no Leibniz slot, cup_table starts no walk after
    check_chain_maps.  On generate(88) and generate(19),
    check_chain_maps walks on the displayed formula only the other basis
    cocycles and the degree-1 representatives whose support meets a slot
    arrow; the tower keeps a lift only for a representative, the
    lift_terms one; and cup_table then walks each representative of the
    degrees after the first witness once, and no other cocycle."""
    calls = counting_audits(monkeypatch)

    auditor = checks.Auditor(parse(a_n_text(7)))
    assert auditor.check_chain_maps().passed
    assert calls[False] and not cup_module._slot_arrows(auditor.cx)
    calls[False].clear()
    calls[True].clear()
    assert cup_table(auditor.cx).all_zero
    assert not calls[True] and not calls[False]

    for seed in (88, 19):
        auditor = checks.Auditor(generate(seed))
        result = auditor.check_chain_maps()
        assert not result.passed
        witness = int(result.detail.split()[1])
        cx = auditor.cx
        arrows = cup_module._slot_arrows(cx)
        reps = [f for m in range(1, cx.top + 1)
                for f in cohomology_basis(cx, m)]
        meeting = [f for f in reps if f.degree == 1
                   and not arrows.isdisjoint(supports(cx, f))]
        assert meeting and len(meeting) < len(reps)
        walked = [f for m in range(1, witness + 1)
                  for f in cocycle_basis(cx, m)
                  if not any(f is r for r in reps) or f in meeting]
        assert calls[False] == Counter({id(f): 1 for f in walked}), seed
        # only a representative keeps a lift, so a basis is not held
        kept = vars(cx)["_memo_rep_lifts"]
        assert sorted(kept) == list(range(1, witness + 1))
        assert all(len(kept[m]) == len(cohomology_basis(cx, m))
                   for m in kept)
        # on seed 19 the displayed formula passes on a representative
        # that meets a slot arrow; its kept lift is still lift_terms
        assert any(formula_audit(cx, f) for f in meeting) == (seed == 19)
        for j, f in enumerate(cohomology_basis(cx, 1)):
            assert ([list(layer.items()) for layer in kept[1][j]]
                    == nonzero_items(dense_lift_values(cx, f, lift_terms)))
        calls[True].clear()
        calls[False].clear()
        assert cup_table(cx).all_zero
        later = [f for m in range(witness + 1, cx.top + 1)
                 for f in cohomology_basis(cx, m)]
        assert calls[True] == Counter({id(f): 1 for f in later}), seed
        assert not calls[False]


def test_broken_lift_raises_instead_of_certifying(monkeypatch):
    """A lift that is not a chain map makes cup_table raise: on seed 88
    the walk evaluating the displayed formula in place of lift_terms, and
    on a_n(3) a lift with one coefficient flipped in every nonzero value
    of lift degree 1, or of lift degree 2.  Both towers are fresh: a tower keeps the lifts it
    audited (rep_lifts)."""
    real = cup_module._layer_values
    monkeypatch.setattr(
        cup_module, "_layer_values", lambda cx, rows, slots, vals, at:
        real(cx, rows, None, vals, at))
    with pytest.raises(CertificateError, match="not a chain map"):
        cup_table(build_tower(generate(88))[2])

    for degree in (1, 2):
        def flipped(cx, rows, slots, vals, positions):
            values = real(cx, rows, slots, vals, positions)
            # the rows of lift degree n are splittings(cx, n, m)
            if any(rows is splittings(cx, degree, m)
                   for m in range(1, cx.top - degree + 1)):
                for value in values:
                    if value:
                        key = next(iter(value))
                        value[key] = -value[key]
            return values

        monkeypatch.setattr(cup_module, "_layer_values", flipped)
        with pytest.raises(CertificateError, match="not a chain map"):
            cup_table(build_tower(parse(a_n_text(3)))[2])


def test_normalization_leaving_the_class_names_each_cocycle(monkeypatch, a_n):
    """normalization-support names every basis cocycle whose
    normalization left its class."""
    monkeypatch.setattr(checks, "normalize_geq", lambda cx, f: Cochain(f.degree))
    auditor = checks.Auditor(a_n[3][0])
    result = auditor.check_normalization_support()
    cx = auditor.cx
    expected = [f"degree {m} cocycle {k}: class of >=-normalization"
                for m in range(1, cx.top + 1)
                for k, f in enumerate(cocycle_basis(cx, m))
                if not is_coboundary(cx, f)[0]]
    assert len(expected) >= 2
    assert (result.passed, result.detail) == (False, "; ".join(expected))


def test_normalization_classes_by_column_lines(a_n, monkeypatch):
    """normalization-support certifies a difference f - N(f) that is a
    multiple of one column of the cochain map without is_coboundary, as
    every nonzero difference on a_n(3) is; a difference that is a sum of
    two columns goes through is_coboundary and passes."""
    calls = []
    real = checks.is_coboundary
    monkeypatch.setattr(checks, "is_coboundary",
                        lambda cx, f: calls.append(f.degree) or real(cx, f))
    assert checks.Auditor(a_n[3][0]).check_normalization_support().passed
    assert not calls

    real_geq = checks.normalize_geq

    def off_by_two_columns(cx, f):
        g = real_geq(cx, f)
        if f.degree != 3:
            return g
        cols = [c for c in cx.columns(3) if c][:2]
        two = Cochain(3, {i: v for c in cols for i, v in c.items()})
        assert len(cols[0]) + len(cols[1]) == len(two.coeffs)
        return g.sub(two)

    monkeypatch.setattr(checks, "normalize_geq", off_by_two_columns)
    auditor = checks.Auditor(a_n[3][0])
    result = auditor.check_normalization_support()
    assert "class of" not in result.detail
    assert calls and set(calls) == {3}


def test_formula_failure_reads_slot_arrows_without_a_support_index(
        monkeypatch):
    """first_formula_failure reads whether a degree-1 cocycle meets a slot
    arrow off the pair keys: over run_all on the 13 check-generated
    inputs it builds no support index itself, and the walks still do.
    A comprehension's frame counts as the function that holds it."""
    real = cup_module._support_index
    callers = Counter()

    def index(cx, f):
        frame = sys._getframe(1)
        while frame.f_code.co_name.startswith("<"):
            frame = frame.f_back
        callers[frame.f_code.co_name] += 1
        return real(cx, f)

    monkeypatch.setattr(sys.modules["stringcoh.cup"], "_support_index", index)
    for seed in range(13):
        checks.Auditor(generate(seed, max_vertices=24,
                                max_arrows=48)).run_all()
    assert callers["_walk"] > 0
    assert callers["first_formula_failure"] == 0
