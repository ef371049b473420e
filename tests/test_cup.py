import dataclasses
import importlib
from collections import Counter
from fractions import Fraction

import pytest

from stringcoh import checks, parse
from stringcoh.cup import (
    Cochain,
    chain_map_audit,
    cocycle_basis,
    cohomology_basis,
    comparison_terms,
    cup,
    cup_table,
    formula_audit,
    is_coboundary,
    is_cocycle,
    lift_terms,
    normalize_geq,
    normalize_leq,
)
from conftest import a_n_text, build_tower
from stringcoh.generate import generate, generate_dsl
from stringcoh.linalg import CertificateError, RationalMatrix
from tests_support import (
    ap_label,
    apply,
    basis_label,
    basis_path,
    bimodule_extension,
    comparison_matrix,
    cup_with_lift,
    decompose,
    dense,
    dense_is_cocycle,
    dense_lift_values,
    fmt,
    global_lift_audit,
    middle_label,
    odd_positions_max,
    path_mult,
    scan_terms_at,
    solved_lift_matrices,
    support,
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
    t = terms[0]
    assert basis_path(basis, t.left).is_trivial
    assert support(res.quiver, res.ap[0][t.middle]).is_trivial
    assert basis_label(res, t.right) == "b2*a3"


def test_comparison_vanishes_off_support(a_n):
    pres, basis, res, cx = a_n[3]
    f = basis_cochain(cx, 2, "a2*a3", "b2*a3")
    (w,) = [e for e in res.ap[3] if ap_label(res, e) == "b1*b2*b3"]
    assert comparison_terms(cx, f, 1, w) == []


def test_comparison_worked_example(a_n):
    """Degree-1 lift of a degree-2 cochain on the full-length support."""
    pres, basis, res, cx = a_n[3]
    f = basis_cochain(cx, 2, "a2*a3", "b2*a3")
    (w,) = [e for e in res.ap[3] if ap_label(res, e) == "a1*a2*a3"]
    terms = comparison_terms(cx, f, 1, w)
    assert len(terms) == 1
    t = terms[0]
    assert basis_path(basis, t.left).is_trivial
    assert middle_label(res, 1, t) == "a1"
    assert basis_label(res, t.right) == "b2*a3"
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
                        got = {(t.coeff, support(q, res.ap[n][t.middle]),
                                basis_path(cx.basis, t.right)) for t in terms}
                        assert got == expect
                        assert all(basis_path(cx.basis, t.left).is_trivial
                                   for t in terms)


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
    assert comparison_terms(cx, f, 1, rel) == []
    (t,) = lift_terms(cx, f, 1, rel)
    assert t.coeff == 1 and basis_path(basis, t.left).is_trivial
    assert middle_label(res, 1, t) == "u"
    assert basis_label(res, t.right) == "v*w"
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


def test_sparse_lift_walk_matches_dense_oracle(corpus, a_n):
    """The lift walk that visits only generators where a side of a square
    can be nonzero reaches the dense walk's verdict and every nonzero
    generator value, in AP order, for both lifts on every basis cocycle,
    and each lift is zero outside the generators _lift_support names:
    the default corpus (red seeds such as 88 included), the 24/48 corpus
    of seeds 0-12, and a_n(1..8)."""
    towers = [(f"seed {seed}", cx) for seed, _, _, _, cx in corpus]
    towers += [(f"seed {s} at 24/48",
                build_tower(generate(s, max_vertices=24, max_arrows=48))[2])
               for s in range(13)]
    towers += [(f"a_n({n})", a_n[n][3] if n in a_n
                else build_tower(parse(a_n_text(n)))[2]) for n in range(1, 9)]
    red = 0
    for name, cx in towers:
        for m in range(1, cx.top + 1):
            for k, f in enumerate(cocycle_basis(cx, m)):
                for terms in (comparison_terms, lift_terms):
                    where = f"{name} degree {m} cocycle {k} {terms.__name__}"
                    for n in range(cx.top - m + 1):
                        nonzero = {i for i, w in enumerate(cx.res.ap[n + m])
                                   if terms(cx, f, n, w)}
                        assert nonzero <= cup_module._lift_support(
                            cx, f, n), f"{where} n={n}"
                    dense = dense_lift_values(cx, f, terms)
                    sparse = cup_module._lift_values(cx, f, terms)
                    assert (dense is None) == (sparse is None), where
                    red += dense is None
                    if dense is not None:
                        assert ([list(d.items()) for d in sparse]
                                == [[(w, v) for w, v in d.items() if v]
                                    for d in dense]), where
    assert red  # failing squares were met too


def test_sparse_lift_walk_evaluates_fewer_generators(monkeypatch):
    """On a_n(7) the sparse walk evaluates the lift formula on fewer
    generators than the dense walk, for the same verdicts."""
    cx = build_tower(parse(a_n_text(7)))[2]
    calls = []

    def counted(cx, f, n, w):
        calls.append(w)
        return lift_terms(cx, f, n, w)

    monkeypatch.setattr(cup_module, "lift_terms", counted)
    counts = {}
    for name, walk in (("sparse", cup_module._lift_values),
                       ("dense", dense_lift_values)):
        calls.clear()
        for m in range(1, cx.top + 1):
            for f in cocycle_basis(cx, m):
                assert walk(cx, f, counted) is not None
        counts[name] = len(calls)
    assert 0 < counts["sparse"] < counts["dense"]


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
                assert (list(f.terms_at(cx, w.pos))
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


def counting_audits(monkeypatch):
    """Count the generator walks of _lift_values by the lift they walk:
    calls[terms][id(f)]."""
    calls = {comparison_terms: Counter(), lift_terms: Counter()}
    real = cup_module._lift_values

    def counted(cx, f, terms):
        calls[terms][id(f)] += 1
        return real(cx, f, terms)

    monkeypatch.setattr(cup_module, "_lift_values", counted)
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
    formula = calls[comparison_terms]
    assert sum(formula[id(f)] for f in basis) > 0
    assert all(formula[id(f)] <= 1 for f in basis)
    formula.clear()
    cup_table(cx)
    assert not formula


def test_cup_table_audits_each_lift_it_evaluates(monkeypatch):
    """Every product cup_table evaluates reads a lift of its right factor
    that passed the generator walk on lift_terms in the same run, and
    each representative is audited once."""
    calls = counting_audits(monkeypatch)
    audited = []
    real_walk, real_evaluate = cup_module._lift_values, cup_module._evaluate

    def walk(cx, f, terms):
        values = real_walk(cx, f, terms)
        if terms is lift_terms and values is not None:
            audited.extend(values)
        return values

    evaluated = []

    def evaluate(cx, g, m, lift):
        evaluated.append(lift)
        return real_evaluate(cx, g, m, lift)

    monkeypatch.setattr(cup_module, "_lift_values", walk)
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
        assert [calls[lift_terms][id(f)] for f in reps] == [1] * len(reps)
        calls[lift_terms].clear()


def test_broken_lift_raises_instead_of_certifying(monkeypatch):
    """A lift that is not a chain map makes cup_table raise: on seed 88
    the displayed formula in place of lift_terms, and on a_n(3) a lift
    with one coefficient flipped.  Both towers are fresh: a cohomology
    representative keeps the lift it was audited on."""
    monkeypatch.setattr(cup_module, "lift_terms", comparison_terms)
    with pytest.raises(CertificateError, match="not a chain map"):
        cup_table(build_tower(generate(88))[2])

    def flipped(cx, f, n, w):
        terms = lift_terms(cx, f, n, w)
        if n == 1 and terms:
            terms[0] = dataclasses.replace(terms[0], coeff=-terms[0].coeff)
        return terms

    monkeypatch.setattr(cup_module, "lift_terms", flipped)
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
