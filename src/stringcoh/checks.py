"""Whole-pipeline audit: every structural property, one CheckResult each.

This is the single implementation behind the CLI's check command and the
property-based test suite.  Each check is independent; failures carry a
short witness description.  build_tower builds the tower for the
Auditor and for every CLI command.
"""

from __future__ import annotations

from fractions import Fraction

from .cup import (
    cocycle_basis,
    cup_table,
    first_formula_failure,
    is_coboundary,
    normalize_geq,
    normalize_leq,
)
from .hochschild import CochainComplex
from .linalg import RationalMatrix
from .presentation import (CheckResult, Presentation, ValidationReport,
                           basis_P, validate)
from .resolution import Resolution


def build_tower(pres: Presentation, max_degree: int | None = None):
    """The path basis, resolution and cochain complex of pres.  A degree
    cap computes one degree beyond it so every reported dimension stays
    exact; callers slice the reports."""
    basis = basis_P(pres)
    cap = None if max_degree is None else max_degree + 1
    res = Resolution(pres, basis, cap)
    return basis, res, CochainComplex(res)


class Auditor:
    """Builds the full tower over one presentation and runs every audit."""

    def __init__(self, pres: Presentation,
                 report: ValidationReport | None = None):
        """report is pres's validation report when the caller already has
        one; without it the presentation is validated here."""
        self.pres = pres
        self.report: ValidationReport = (validate(pres) if report is None
                                         else report)
        if not self.report.passed:
            raise ValueError(
                "presentation fails validation: "
                + "; ".join(f"{n}: {d}" for n, d in self.report.failures())
            )
        self.basis, self.res, self.cx = build_tower(pres)

    def run_all(self) -> list[CheckResult]:
        return [
            self.check_ap_duality(),
            self.check_sub_cardinality(),
            self.check_d_squared(),
            self.check_exactness(),
            self.check_euler(),
            self.check_partition(),
            self.check_strip(),
            self.check_shared_arrow_bound(),
            self.check_quadratic_degree_two(),
            self.check_hh0(),
            self.check_agreement(),
            self.check_f_squared(),
            self.check_cochain_vs_differential(),
            self.check_ker_im(),
            self.check_tree_criterion(),
            self.check_quadratic_corollary(),
            self.check_chain_maps(),
            self.check_normalization_support(),
            self.check_cup(),
        ]

    # -- resolution-level checks -----------------------------------------

    def check_ap_duality(self) -> CheckResult:
        """Passes: the certificate is Resolution._join, run when this
        Auditor built its tower, which raises ApConstructionError naming
        every support that one greedy run found alone."""
        return CheckResult("ap-duality", True)

    def check_sub_cardinality(self) -> CheckResult:
        fmt = self.pres.quiver.format_word
        witnesses = []
        for n in range(2, self.res.top + 1):
            for w in self.res.ap[n]:
                subs = self.res.sub(w)
                odd = n % 2 == 1
                quadratic = any(len(p) == 2 for p in w.chain)
                if (odd or quadratic) and len(subs) != 2:
                    witnesses.append(f"degree {n} support {fmt(w.word)} "
                                     f"with {len(subs)} divisors")
        return _verdict("sub-cardinality", witnesses)

    def check_d_squared(self) -> CheckResult:
        return CheckResult("d-squared", self.res.d_squared_is_zero())

    def check_exactness(self) -> CheckResult:
        """Exactness, naming every degree and vertex x where P (x)_A S_x
        has homology."""
        dims = self.res.homology_dims()
        labels = self.pres.quiver.vertex_labels
        witnesses = [f"degree {n} vertex {labels[x]}: {h}"
                     for n, by_x in enumerate(self.res.homology_by_vertex())
                     for x, h in sorted(by_x.items()) if h]
        return CheckResult("exactness", not any(dims),
                           "; ".join([f"homology {dims}"] + witnesses))

    def check_euler(self) -> CheckResult:
        """Sum of (-1)^n dim A (x) kAP_n (x) A, from counts, is dim A."""
        b = self.basis
        total = -b.dim
        for n in self.res.degrees():
            for w in self.res.ap[n]:
                total += (-1) ** n * (len(b.ending_at(w.source))
                                      * len(b.starting_at(w.target)))
        return CheckResult("euler", total == 0, f"alternating sum {total}")

    # -- partition checks ---------------------------------------------------

    def check_partition(self) -> CheckResult:
        witnesses = []
        for n in range(1, self.res.top + 1):
            counts = self.cx.class_counts(n)
            total = len(self.cx.pairs(n))
            in_classes = sum(counts[k] for k in ("(0,0)", "(1,0)", "(0,1)", "(1,1)"))
            if in_classes != total:
                witnesses.append(f"degree {n} not exhaustive")
            dec00 = sum(counts[k] for k in
                        ("-(0,0)-", "-(0,0)+", "+(0,0)-", "+(0,0)+"))
            if dec00 != counts["(0,0)"]:
                witnesses.append(f"degree {n} decorations")
            if (counts["(1,0)--"] + counts["(1,0)-+"] != counts["(1,0)-"]
                    or counts["--(0,1)"] + counts["+-(0,1)"] != counts["-(0,1)"]):
                witnesses.append(f"degree {n} refinements")
        return _verdict("partition", witnesses)

    def check_strip(self) -> CheckResult:
        """Shared arrows strip off: a shared-first-arrow pair loses its
        first arrow to a lower-degree pair sharing neither end, and
        likewise on the right and on both sides at once."""
        words = self.basis.words
        witnesses = []
        for n in range(2, self.res.top + 1):
            for p in self.cx.pairs(n):
                rho, gamma = p.rho.word, words[p.gamma_id]
                if p.class_label == "(1,0)":
                    ok = self._is_00_pair(n - 1, rho[1:], gamma[1:])
                elif p.class_label == "(0,1)":
                    ok = self._is_00_pair(n - 1, rho[:-1], gamma[:-1])
                elif p.class_label == "(1,1)" and n >= 3:
                    ok = self._is_00_pair(n - 2, rho[1:-1], gamma[1:-1])
                else:
                    continue
                if not ok:
                    witnesses.append(f"degree {n} {p.label} does not strip")
        return _verdict("strip-to-lower-degree", witnesses)

    def _is_00_pair(self, degree, rho, gamma) -> bool:
        """Whether the arrow words rho and gamma are a support of this
        degree and a parallel nontrivial basis path sharing neither end
        arrow with it (in degree 1, differing from it)."""
        if (rho not in self.res.positions(degree)
                or gamma not in self.basis.word_index):
            return False
        q = self.pres.quiver
        if (q.arrow_source[gamma[0]] != q.arrow_source[rho[0]]
                or q.arrow_target[gamma[-1]] != q.arrow_target[rho[-1]]):
            return False
        if degree == 1:
            return gamma != rho
        return gamma[0] != rho[0] and gamma[-1] != rho[-1]

    def check_shared_arrow_bound(self) -> CheckResult:
        """Parallel pairs share at most one leading and one trailing arrow."""
        words = self.basis.words
        witnesses = []
        for n in range(1, self.res.top + 1):
            for p in self.cx.pairs(n):
                a, b = p.rho.word, words[p.gamma_id]
                pref = _common_prefix(a, b)
                suf = _common_prefix(a[::-1], b[::-1])
                limit = len(a) if a == b else 1
                if pref > limit or suf > limit:
                    witnesses.append(
                        f"degree {n} pair shares {pref}/{suf} arrows")
        return _verdict("shared-arrow-bound", witnesses)

    def check_quadratic_degree_two(self) -> CheckResult:
        c2 = self.cx.class_counts(2) if self.res.top >= 2 else None
        ok = c2 is None or c2["(1,1)"] == 0
        return CheckResult("degree-two-no-shared-both", ok)

    # -- dimension checks ---------------------------------------------------

    def check_hh0(self) -> CheckResult:
        dim0 = self.cx.nullity(1)
        return CheckResult("hh0-is-one", dim0 == 1, f"nullity {dim0}")

    def check_agreement(self) -> CheckResult:
        table = self.cx.hh_table()
        bad = [r.degree for r in table.rows if not r.agree]
        return CheckResult(
            "formula-vs-matrix", not bad,
            "" if not bad else f"disagreement at degrees {bad}",
        )

    def check_f_squared(self) -> CheckResult:
        return _verdict("cochain-map-squares-to-zero", [
            f"degree {n}" for n in range(1, self.res.top + 1)
            if not (self.cx.matrix(n + 1) @ self.cx.matrix(n)).is_zero()])

    def check_cochain_vs_differential(self) -> CheckResult:
        """The cochain matrix must equal the dual of the resolution
        differential: two constructions, one matrix."""
        return _verdict("cochain-vs-differential", [
            f"degree {n}" for n in range(1, self.res.top + 1)
            if self.cx.matrix(n) != self._dualized_differential(n)])

    def _dualized_differential(self, n: int) -> RationalMatrix:
        rows = self.cx.pairs(n)
        cols = self.cx.pairs(n - 1)
        row_index = self.cx.pair_index(n)
        cols_by_support = {}
        for j, (rho, gamma) in enumerate(self.cx.pair_keys(n - 1)):
            cols_by_support.setdefault(rho, []).append((j, gamma))
        mat = RationalMatrix(len(rows), len(cols))
        for w, image in self.res.differential(n).items():
            for (left, psi, right), c in image.items():
                for j, gamma in cols_by_support.get(psi, []):
                    prod = self.basis.mult3(left, gamma, right)
                    if prod is not None:
                        mat.add_at(row_index[(w, prod)], j, c)
        return mat

    def check_ker_im(self) -> CheckResult:
        witnesses = []
        for n in range(2, self.res.top + 2):
            witnesses += [f"degree {n}: {c.name} ({c.detail})"
                          for c in self.cx.ker_im_audit(n) if not c.passed]
        return _verdict("kernel-image-audit", witnesses)

    def check_tree_criterion(self) -> CheckResult:
        dims = self.cx.hh_matrix()
        hh1 = dims[1] if len(dims) > 1 else 0
        if self.pres.quiver.is_tree():
            ok = all(d == 0 for d in dims[1:])
            return CheckResult("tree-criterion", ok,
                               "" if ok else f"tree with dims {dims}")
        ok = hh1 >= 1
        return CheckResult("tree-criterion", ok,
                           "" if ok else "non-tree with zero first cohomology")

    def check_quadratic_corollary(self) -> CheckResult:
        if any(len(r) != 2 for r in self.pres.relations):
            return CheckResult("quadratic-corollary", True, "not quadratic")
        dims = self.cx.hh_matrix()
        witnesses = []
        for n in range(2, self.res.top + 1):
            counts = self.cx.class_counts(n)
            if counts["+-(0,1)"] != 0 or dims[n] != counts["-(0,0)-"]:
                witnesses.append(f"degree {n}")
        return _verdict("quadratic-corollary", witnesses)

    # -- comparison-map and cup checks ---------------------------------------

    def check_chain_maps(self) -> CheckResult:
        """The paper's displayed lift formula must commute with the
        differentials for every basis cocycle.  It does not for degree-1
        cocycles with a value on an arrow strictly inside a relation of
        length >= 3: the formula sees only the last arrow.  This check
        reports that documented deviation; cup products are evaluated on
        the corrected lift, which is a chain map (see
        docs/comparison-lift.md) and is audited once per tower
        (cup.rep_lifts, which cup_table reads).

        Unlike the other checks it stops at its first witness
        (cup.first_formula_failure).  Where the displayed formula is the
        lift, a representative's audited lift decides it; the other basis
        cocycles of one degree are walked together on the formula, and a
        failed walk stops the walks of the later ones and of every later
        degree.  Listing every witness would walk every basis cocycle of
        a red input to the end."""
        for m in range(1, self.res.top + 1):
            k = first_formula_failure(self.cx, m)
            if k is not None:
                return CheckResult(
                    "chain-maps", False,
                    f"degree {m} cocycle {k}: formula lift is not a "
                    "chain map (diagonal support inside a long relation)",
                )
        return CheckResult("chain-maps", True)

    def check_cup(self) -> CheckResult:
        report = cup_table(self.cx)
        self.cup_report = report
        if report.all_zero:
            return CheckResult(
                "cup-vanishing", True,
                f"pairs checked: {report.pairs_checked}",
            )
        return CheckResult("cup-vanishing", False, "; ".join(
            f"({e.deg_g},{e.deg_f}) reps ({e.idx_g},{e.idx_f})"
            for e in report.failures()))

    def check_normalization_support(self) -> CheckResult:
        """The <=- and >=-normalization of every basis cocycle only touch
        the allowed classes (plus the degree-1 diagonal, which has no
        lower rewriting) and stay in the cocycle's class.  A difference
        f - N(f) that is zero or a multiple of one column of the cochain
        map is a coboundary without elimination; only the others go
        through is_coboundary."""
        witnesses = []
        for m in range(1, self.res.top + 1):
            pairs = self.cx.pairs(m)
            lines = None
            for k, f in enumerate(cocycle_basis(self.cx, m)):
                for name, norm, allowed in (
                        ("<=", normalize_leq, ("(0,0)", "(0,1)")),
                        (">=", normalize_geq, ("(0,0)", "(1,0)"))):
                    g = norm(self.cx, f)
                    if any(pairs[i].class_label not in allowed
                           and not (m == 1 and pairs[i].class_label == "(1,1)")
                           for i in g.coeffs):
                        witnesses.append(f"degree {m} cocycle {k}: "
                                         f"{name}-normalization support")
                    diff = f.sub(g)
                    if not diff.coeffs:
                        continue
                    if lines is None:
                        lines = {_line(col) for col in self.cx.columns(m) if col}
                    if (_line(diff.coeffs) not in lines
                            and not is_coboundary(self.cx, diff)[0]):
                        witnesses.append(f"degree {m} cocycle {k}: "
                                         f"class of {name}-normalization")
        return _verdict("normalization-support", witnesses)


def _verdict(name: str, witnesses: list[str]) -> CheckResult:
    """Passed with an empty detail, or failed naming every witness."""
    return CheckResult(name, not witnesses, "; ".join(witnesses))


def _line(vec: dict) -> tuple:
    """A nonzero sparse vector scaled to lead with 1, so that two vectors
    have the same line exactly when one is a multiple of the other."""
    items = sorted(vec.items())
    lead = items[0][1]
    if lead == 1:
        return tuple(items)
    if lead == -1:
        return tuple((i, -v) for i, v in items)
    return tuple((i, Fraction(v) / lead) for i, v in items)


def _common_prefix(a, b) -> int:
    n = 0
    for x, y in zip(a, b):
        if x != y:
            break
        n += 1
    return n
