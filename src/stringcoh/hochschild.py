"""The Hochschild cochain complex of a triangular string algebra.

Applying Hom into the algebra turns degree n of the resolution into the
span of parallel pairs (rho, gamma): rho a degree-n support, gamma a
basis path with the same endpoints.  Pairs are partitioned by whether
gamma shares rho's first and/or last arrow, and decorated by whether all
arrow extensions of gamma on a side fall into the ideal.  The cohomology
dimensions are computed twice: from ranks of the cochain maps, and by
pure counting over that partition.  The two columns must agree in every
degree; a disagreement is reported, never repaired.

Pairs are built on ids: each is classified once, from its support's
first and last arrows and a per-basis-path table (_pair_kinds), and
carries its class and decorated label.  In degree >= 1 the labels are
a function of five flags, shares_first (f), shares_last (l),
left_dead (L), right_dead (R) and inner_dead (I), one table (_LABELS):

    f l  class   label
    0 0  (0,0)   -(0,0)-, -(0,0)+, +(0,0)-, +(0,0)+: a sign per side,
                 - for L (left) and R (right), + otherwise
    1 0  (1,0)   (1,0)+ when not R; with R, (1,0)-- when I, else (1,0)-+
    0 1  (0,1)   +(0,1) when not L; with L, --(0,1) when I, else +-(0,1)
    1 1  (1,1)   (1,1)

I is read only where it decides the label, and is None elsewhere.  The
16 COUNT_KEYS count each pair under its class and its label, the (1,0)
pairs with R once more under (1,0)-, and the (0,1) pairs with L under
-(0,1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import NamedTuple

from .linalg import CertificateError, Echelon, RationalMatrix
from .presentation import PathBasis
from .resolution import ApElement, Resolution, memo


class ParallelPair(NamedTuple):
    """A cochain basis element: a support together with a parallel basis
    path gamma, named by its id in the basis, classified once, when
    CochainComplex.pairs builds its degree.

    The flags and both labels are None in degree 0, where the partition
    is not defined (the only pairs are (e_x, e_x)); from degree 1 on, the
    labels are _LABELS of the five flags, e.g. ``-(0,0)+`` or ``(1,0)--``
    or ``+-(0,1)``.
    """

    rho: ApElement
    gamma_id: int
    shares_first: bool | None = None
    shares_last: bool | None = None
    left_dead: bool | None = None
    right_dead: bool | None = None
    inner_dead: bool | None = None
    class_label: str | None = None
    label: str | None = None

    @property
    def degree(self) -> int:
        return self.rho.degree


def _sign(dead: bool) -> str:
    return "-" if dead else "+"


def _label_table() -> dict[tuple, tuple[str, str]]:
    """(shares_first, shares_last, left_dead, right_dead, inner_dead) ->
    (class_label, label), for every flag combination a pair of degree >= 1
    can carry; x and y run over both values of a free flag."""
    table = {}
    for x in (False, True):
        for y in (False, True):
            table[(False, False, x, y, None)] = (
                "(0,0)", f"{_sign(x)}(0,0){_sign(y)}")
            table[(True, True, x, y, None)] = ("(1,1)", "(1,1)")
            table[(True, False, x, False, None)] = ("(1,0)", "(1,0)+")
            table[(True, False, x, True, y)] = ("(1,0)", f"(1,0)-{_sign(y)}")
            table[(False, True, False, x, None)] = ("(0,1)", "+(0,1)")
            table[(False, True, True, x, y)] = ("(0,1)", f"{_sign(y)}-(0,1)")
    return table


_LABELS = _label_table()


def _kind(left: bool, right: bool, inner_left: bool,
          inner_right: bool) -> tuple[tuple, ...]:
    """The pair fields from shares_first on (the five flags, then both
    labels) of a gamma with these side decorations, for each way of
    sharing arrows with the support, indexed by 2 * shares_first +
    shares_last.  A pair sharing exactly one end arrow, dead on the other
    side, takes as inner decoration that side's decoration of gamma with
    the shared arrow stripped."""
    out = []
    for first in (False, True):
        for last in (False, True):
            inner = None
            if first and not last and right:
                inner = inner_right
            elif last and not first and left:
                inner = inner_left
            flags = (first, last, left, right, inner)
            out.append(flags + _LABELS[flags])
    return tuple(out)


# (left, right, inner left, inner right decoration) -> _kind of them
_KINDS = {sides: _kind(*sides)
          for sides in product((False, True), repeat=4)}


@memo
def _pair_kinds(basis: PathBasis) -> list[tuple | None]:
    """Per basis id: None for a vertex; for a nontrivial gamma, its first
    arrow, its last arrow and its _kind.

    A side of gamma is dead when every arrow extension of gamma on that
    side falls into the ideal (vacuously dead when no arrow composes).
    An extension b * gamma in the basis has gamma as its suffix, so the
    live left sides are the ids of every basis path without its first
    arrow, and the live right sides those without its last: one pass
    over the basis.  The inner decorations ask the same question of gamma
    without its first arrow (on the right) or its last (on the left)."""
    q, words = basis.pres.quiver, basis.word_index
    # (id without the first arrow, id without the last) per nontrivial
    # basis path; word_index lists them in id order
    stripped = [(words[w[1:]], words[w[:-1]]) if len(w) > 1
                else (q.arrow_target[w[0]], q.arrow_source[w[0]])
                for w in words]
    live_left = {rest for rest, _ in stripped}
    live_right = {init for _, init in stripped}
    out: list[tuple | None] = [None] * q.num_vertices
    out += [(w[0], w[-1], _KINDS[(g not in live_left, g not in live_right,
                                  init not in live_left,
                                  rest not in live_right)])
            for (w, g), (rest, init) in zip(words.items(), stripped)]
    return out


COUNT_KEYS = (
    "(0,0)", "(1,0)", "(0,1)", "(1,1)",
    "-(0,0)-", "-(0,0)+", "+(0,0)-", "+(0,0)+",
    "(1,0)+", "(1,0)-", "(1,0)--", "(1,0)-+",
    "+(0,1)", "-(0,1)", "--(0,1)", "+-(0,1)",
)


@dataclass
class HHRow:
    degree: int
    dim_formula: int
    dim_matrix: int
    counts: dict[str, int]

    @property
    def agree(self) -> bool:
        return self.dim_formula == self.dim_matrix


@dataclass
class HHTable:
    rows: list[HHRow]
    top: int

    @property
    def dims_formula(self) -> list[int]:
        return [r.dim_formula for r in self.rows]

    @property
    def dims_matrix(self) -> list[int]:
        return [r.dim_matrix for r in self.rows]

    @property
    def agree(self) -> bool:
        return all(r.agree for r in self.rows)


@dataclass
class CheckResult:
    """One named pass/fail verdict with a witness description: an entry
    of a KerImAudit, and the result of each check of checks.Auditor."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class KerImAudit:
    degree: int
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name, passed, detail=""):
        self.checks.append(CheckResult(name, passed, detail))

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def require_lift_degree(n: int, m: int, w: ApElement):
    """A degree-n lift of a degree-m cocycle (m >= 1) is evaluated on the
    generators of AP_{n+m}; CertificateError for any other w."""
    if m < 1 or w.degree != n + m:
        raise CertificateError(
            f"a degree-{n} lift of a degree-{m} cocycle takes AP_{n + m}, "
            f"not AP_{w.degree}")


class CochainComplex:
    """Pair bases, the cochain maps, and both dimension computations."""

    def __init__(self, res: Resolution):
        self.res = res
        self.basis = res.basis
        self.quiver = res.quiver
        self.top = res.top

    # -- bases -----------------------------------------------------------

    @memo
    def pairs(self, n: int) -> list[ParallelPair]:
        """All parallel pairs in degree n, rho in support order then gamma
        in basis order, each classified from its support's first and last
        arrows and gamma's row of _pair_kinds.  CertificateError when a
        vertex has a nontrivial parallel basis path or a support of
        degree >= 1 a trivial one: both would be cycles."""
        if not 0 <= n <= self.top:
            return []
        basis = self.basis
        between = basis.between
        out: list[ParallelPair] = []
        if n == 0:
            for elem in self.res.ap[0]:
                x = elem.source
                if between(x, x) != [x]:
                    raise CertificateError(
                        "a nontrivial basis path is parallel to a vertex")
                out.append(ParallelPair(elem, x))
            return out
        kinds = _pair_kinds(basis)
        nv = self.quiver.num_vertices
        new = tuple.__new__  # ParallelPair from all its fields at once
        for elem in self.res.ap[n]:
            head, last = elem.word[0], elem.word[-1]
            ids = between(elem.source, elem.target)
            # ids ascend and the vertices come first
            if ids and ids[0] < nv:
                raise CertificateError(
                    "a trivial path is parallel to a cycle-free support")
            for g in ids:
                first, final, kind = kinds[g]
                out.append(new(ParallelPair, (elem, g)
                               + kind[2 * (first == head) + (final == last)]))
        return out

    @memo
    def pair_keys(self, n: int) -> list[tuple[int, int]]:
        """(position of rho in AP_n, id of gamma) of each pair of
        pairs(n), in that order."""
        return [(p.rho.pos, p.gamma_id) for p in self.pairs(n)]

    @memo
    def pair_index(self, n: int) -> dict[tuple[int, int], int]:
        """The inverse of pair_keys(n)."""
        return {key: i for i, key in enumerate(self.pair_keys(n))}

    # -- where and how comparison lifts are nonzero ---------------------------
    # Per position in AP_{n+m}, in ids, shared by every cocycle and both
    # lift formulas.

    @memo
    def splittings(self, n: int, m: int) -> list[tuple[int, tuple, int]]:
        """Per w in AP_{n+m}, by position: the position in AP_m of its
        degree-m tail, every occurrence L * psi * R of an element psi
        of AP_n inside head * u (Resolution.split) with both cofactors
        in the basis, as (id of L, position of psi, id of R), in the order
        of Resolution.occurrences_in, and the count of all occurrences.
        For n = 0 the tail is w itself and there are none.  An occurrence
        with a cofactor in the ideal adds nothing to a comparison lift but
        is counted.  Every element of AP_{n+m} is checked to have degree
        n + m."""
        res = self.res
        out = []
        for w in res.ap[n + m]:
            require_lift_degree(n, m, w)
            if n == 0:
                out.append((w.pos, (), 0))
                continue
            j, tail = res.split(w, n, m)
            # head * u = word[:j] holds the head, of at least one arrow
            occurrences = res.occurrences_in(n, w.word[:j], w.source)
            divisors = [(left, psi, right)
                        for psi, _, _, left, right in occurrences
                        if left is not None and right is not None]
            out.append((tail, tuple(divisors), len(occurrences)))
        return out

    @memo
    def lift_tails(self, n: int, m: int) -> dict[int, list[int]]:
        """Position of the degree-m tail of w in AP_m -> the positions of
        those w in AP_{n+m}, from splittings(n, m).  A degree-n lift of a
        cocycle f takes its value at w from f(tail), so it can be nonzero
        only where the tail supports f."""
        out: dict[int, list[int]] = {}
        for i, (tail, _, _) in enumerate(self.splittings(n, m)):
            out.setdefault(tail, []).append(i)
        return out

    @memo
    def leibniz_slots(self, n: int) -> list[tuple]:
        """Per w in AP_{n+1}, by position: where the Leibniz terms of a
        degree-1 lift (cup.lift_terms) can sit.  Each slot is an
        occurrence L * psi * P * alpha * S = w with psi in AP_n, L in the
        basis and alpha an arrow other than the last of w, as (id of L, position of
        psi, alpha, id of P, id of S), by occurrence and then by the
        position of alpha.  A slot whose P or S falls in the ideal adds
        nothing and is left out."""
        ids = self.basis.word_index
        target = self.quiver.arrow_target
        out = []
        for w in self.res.ap[n + 1]:
            word, source = w.word, w.source
            last = len(word) - 1
            slots = []
            # a divisor of w ending at its last arrow leaves no slot
            for psi, _, b, left, _ in self.res.sub(w):
                if left is None:
                    continue
                at_b = target[word[b - 1]] if b else source
                for j in range(b, last):
                    mid = ids.get(word[b:j]) if j > b else at_b
                    rest = ids.get(word[j + 1 :])
                    if mid is not None and rest is not None:
                        slots.append((left, psi, word[j], mid, rest))
            out.append(tuple(slots))
        return out

    @memo
    def interior_arrows(self, k: int) -> dict[int, list[int]]:
        """Arrow id (its position in AP_1) -> the positions in AP_k of the
        w carrying that arrow strictly inside their support, where the
        Leibniz terms of a degree-1 lift sit."""
        out: dict[int, list[int]] = {}
        for i, w in enumerate(self.res.ap[k]):
            for a in w.word[1:-1]:
                out.setdefault(a, []).append(i)
        return out

    @memo
    def cofaces(self, k: int) -> dict[int, list[int]]:
        """Position of psi in AP_{k-1} -> the positions in AP_k of the w
        whose differential d_k(1 (x) w (x) 1) has a term with middle psi."""
        out: dict[int, list[int]] = {}
        for i, terms in self.res.differential(k).items():
            for t in terms:
                out.setdefault(t.middle, []).append(i)
        return out

    def class_counts(self, n: int) -> dict[str, int]:
        """Pairs per class and decoration in degree n (all zero in degree
        0), counted once per degree; each call returns a fresh copy."""
        return dict(self._class_counts(n))

    @memo
    def _class_counts(self, n: int) -> dict[str, int]:
        counts = {k: 0 for k in COUNT_KEYS}
        for p in self.pairs(n) if n >= 1 else ():
            counts[p.class_label] += 1
            if p.label != p.class_label:
                counts[p.label] += 1
            if p.class_label == "(1,0)" and p.right_dead:
                counts["(1,0)-"] += 1
            if p.class_label == "(0,1)" and p.left_dead:
                counts["-(0,1)"] += 1
        return counts

    # -- the cochain maps --------------------------------------------------

    @memo
    def matrix(self, n: int) -> RationalMatrix:
        """The degree-n cochain map on the pair bases (columns in degree
        n-1, rows in degree n).  An entry survives only when the evaluated
        cofactor product stays out of the ideal."""
        if n < 1:
            raise ValueError(f"cochain maps start in degree 1, not {n}")
        row_index = self.pair_index(n)
        mat = RationalMatrix(len(self.pairs(n)), len(self.pairs(n - 1)))
        if n == 1:
            q, words = self.quiver, self.basis.word_index
            cols = self.pair_index(0)
            # arrow a is element a of AP_1, and vertex x element x of AP_0
            # and basis path x: the pair (a, a) takes e_target - e_source
            for a in range(q.num_arrows):
                i = row_index[(a, words[(a,)])]
                s, t = q.arrow_source[a], q.arrow_target[a]
                mat.add_at(i, cols[(s, s)], -1)
                mat.add_at(i, cols[(t, t)], 1)
        else:
            cols_by_support: dict[int, list[tuple[int, int]]] = {}
            for j, (rho, gamma) in enumerate(self.pair_keys(n - 1)):
                cols_by_support.setdefault(rho, []).append((j, gamma))
            mult, mult3 = self.basis.mult, self.basis.mult3
            even = n % 2 == 0
            for w in self.res.ap[n] if n <= self.top else []:
                length = len(w.word)
                for pos, start, end, left, right in self.res.sub(w):
                    # odd degrees: + L gamma at the flush-right divisor,
                    # - gamma R at the flush-left one
                    if not even and end != length and start != 0:
                        raise CertificateError(
                            "odd-degree divisor is flush at neither end")
                    targets = cols_by_support.get(pos)
                    if not targets or left is None or right is None:
                        continue  # no column, or a cofactor in the ideal: all 0
                    for j, gamma in targets:
                        if even:
                            prod = mult3(left, gamma, right)
                            coeff = 1
                        elif end == length:
                            prod = mult(left, gamma)
                            coeff = 1
                        else:
                            prod = mult(gamma, right)
                            coeff = -1
                        if prod is not None:
                            mat.add_at(row_index[(w.pos, prod)], j, coeff)
        return mat

    @memo
    def columns(self, n: int) -> list[dict[int, int]]:
        """The columns of matrix(n) as {row: value} dicts."""
        mat = self.matrix(n)
        out: list[dict[int, int]] = [{} for _ in range(mat.cols)]
        for i, j, v in mat.items():
            out[j][i] = v
        return out

    @memo
    def echelon(self, n: int) -> Echelon:
        """The one elimination of matrix(n): its rank here, its kernel in
        cup.cocycle_basis."""
        return self.matrix(n).echelon()

    def rank(self, n: int) -> int:
        return self.echelon(n).rank

    def nullity(self, n: int) -> int:
        return self.matrix(n).cols - self.rank(n)

    # -- dimensions --------------------------------------------------------

    def hh_matrix(self) -> list[int]:
        """Cohomology dimensions from exact ranks, degrees 0..top."""
        dims = [self.nullity(1)]
        for n in range(1, self.top + 1):
            dims.append(self.nullity(n + 1) - self.rank(n))
        return dims

    def hh_formula(self) -> list[int]:
        """Cohomology dimensions by counting, degrees 0..top.

        Degree 0 is 1 for a connected triangular algebra.  Degree 1 counts
        arrows and fully dead off-diagonal arrow pairs against vertices.
        Higher degrees count the fully dead (0,0) pairs plus the half-dead
        shared-last-arrow pairs whose inner extension survives.
        """
        dims = [1]
        if self.top >= 1:
            c1 = self.class_counts(1)
            dims.append(
                self.quiver.num_arrows + c1["-(0,0)-"] - self.quiver.num_vertices + 1
            )
        for n in range(2, self.top + 1):
            cn = self.class_counts(n)
            dims.append(cn["+-(0,1)"] + cn["-(0,0)-"])
        return dims

    @memo
    def hh_table(self) -> HHTable:
        """Both dimension columns and the class counts per degree, built
        once; callers that trim rows build a new table."""
        formula = self.hh_formula()
        matrix = self.hh_matrix()
        rows = [HHRow(n, formula[n], matrix[n], self.class_counts(n))
                for n in range(self.top + 1)]
        return HHTable(rows, self.top)

    # -- kernel/image audit --------------------------------------------------

    def ker_im_audit(self, n: int) -> KerImAudit:
        """Compare ranks against the counting description of the kernel and
        image of the degree-n cochain map, and check the extension
        bijections between decorated classes degree by degree."""
        if not 2 <= n <= self.top + 1:
            raise ValueError(
                f"the audit runs in degrees 2..{self.top + 1}, not {n}")
        prev = self.class_counts(n - 1)
        cur = self.class_counts(n)
        audit = KerImAudit(n)

        ker_count = prev["-(0,0)-"] + prev["(1,0)"] + prev["-(0,1)"] + prev["(1,1)"]
        audit.add(
            "kernel-count", self.nullity(n) == ker_count,
            f"nullity {self.nullity(n)} vs counted {ker_count}",
        )
        im_count = cur["--(0,1)"] + cur["(1,0)"] + cur["(1,1)"]
        audit.add(
            "image-count", self.rank(n) == im_count,
            f"rank {self.rank(n)} vs counted {im_count}",
        )
        audit.add(
            "left-extension-bijection", prev["-(0,0)+"] == cur["--(0,1)"],
            f"{prev['-(0,0)+']} vs {cur['--(0,1)']}",
        )
        audit.add(
            "right-extension-bijection", prev["+(0,0)-"] == cur["(1,0)--"],
            f"{prev['+(0,0)-']} vs {cur['(1,0)--']}",
        )
        ok, detail = self._shared_image_check(n)
        audit.add("shared-image-bijection", ok, detail)
        audit.add(
            "phi-count", cur["(1,0)+"] == cur["+(0,1)"],
            f"{cur['(1,0)+']} vs {cur['+(0,1)']}",
        )
        audit.add(
            "psi-count", cur["(1,0)-+"] == cur["+-(0,1)"],
            f"{cur['(1,0)-+']} vs {cur['+-(0,1)']}",
        )
        return audit

    def _shared_image_check(self, n: int) -> tuple[bool, str]:
        """Each basis pair in (1,0)+ of degree n-1 maps to a single signed
        basis pair of class (1,1) in degree n, and those images exhaust
        the (1,1) pairs."""
        rows = self.pairs(n)
        cols = self.columns(n)
        hit_rows = set()
        for j, pair in enumerate(self.pairs(n - 1)):
            if pair.label != "(1,0)+":
                continue
            entries = list(cols[j].items())
            if len(entries) != 1:
                return False, f"column {j} has {len(entries)} entries"
            i, v = entries[0]
            if abs(v) != 1 or rows[i].class_label != "(1,1)":
                return False, f"column {j} image not a signed (1,1) pair"
            if i in hit_rows:
                return False, f"two columns share image row {i}"
            hit_rows.add(i)
        want = {i for i, p in enumerate(rows) if p.class_label == "(1,1)"}
        if hit_rows != want:
            return False, "images do not exhaust the shared-both-arrows pairs"
        return True, ""
