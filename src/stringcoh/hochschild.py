"""The Hochschild cochain complex of a triangular string algebra.

Applying Hom into the algebra turns degree n of the resolution into the
span of parallel pairs (rho, gamma): rho a degree-n support, gamma a
basis path with the same endpoints.  Pairs are partitioned by whether
gamma shares rho's first and/or last arrow, and decorated by whether all
arrow extensions of gamma on a side fall into the ideal.  The cohomology
dimensions are computed twice: from ranks of the cochain maps, and by
pure counting over that partition.  The two columns must agree in every
degree; a disagreement is reported, never repaired.  ker_im_audit checks
the counting description of kernel and image, as a list of CheckResults.

Pairs are built on ids: each is classified once, from its support's
first and last arrows and a per-basis-path table (_pair_kinds), and
carries its class and decorated label.  In degree >= 1 the labels are
a function of five flags, shares_first (f), shares_last (l),
left_dead (L), right_dead (R) and inner_dead (I), one case split
(_kind):

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

from dataclasses import dataclass
from itertools import product
from typing import NamedTuple

from .linalg import CertificateError, Echelon, RationalMatrix
from .presentation import CheckResult, PathBasis
from .resolution import ApElement, Resolution, memo


class ParallelPair(NamedTuple):
    """A cochain basis element: a support together with a parallel basis
    path gamma, named by its id in the basis, classified once, when
    CochainComplex.pairs builds its degree.

    The flags and both labels are None in degree 0, where the partition
    is not defined (the only pairs are (e_x, e_x)); from degree 1 on, _kind
    sets the labels from the five flags, e.g. ``-(0,0)+`` or ``(1,0)--``
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


def _kind(left: bool, right: bool, inner_left: bool,
          inner_right: bool) -> tuple[tuple, ...]:
    """The pair fields from shares_first on (the five flags, then both
    labels) of a gamma with these side decorations, for each way of
    sharing arrows with the support, indexed by 2 * shares_first +
    shares_last: the case split of the module docstring.  A pair sharing
    exactly one end arrow, dead on the other side, takes as inner
    decoration that side's decoration of gamma with the shared arrow
    stripped."""
    out = []
    for first in (False, True):
        for last in (False, True):
            cls = f"({first:d},{last:d})"
            inner = None
            if first == last:
                label = cls if first else f"{_sign(left)}{cls}{_sign(right)}"
            elif first:
                label = cls + "+"
                if right:
                    inner = inner_right
                    label = f"{cls}-{_sign(inner)}"
            else:
                label = "+" + cls
                if left:
                    inner = inner_left
                    label = f"{_sign(inner)}-{cls}"
            out.append((first, last, left, right, inner, cls, label))
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

    @property
    def dims_formula(self) -> list[int]:
        return [r.dim_formula for r in self.rows]

    @property
    def dims_matrix(self) -> list[int]:
        return [r.dim_matrix for r in self.rows]

    @property
    def agree(self) -> bool:
        return all(r.agree for r in self.rows)


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
        cols_by_support: dict[int, list[tuple[int, int]]] = {}
        for j, (rho, gamma) in enumerate(self.pair_keys(n - 1)):
            cols_by_support.setdefault(rho, []).append((j, gamma))
        mult, mult3 = self.basis.mult, self.basis.mult3
        even = n % 2 == 0
        for w in self.res.ap[n] if n <= self.top else []:
            length = len(w.word)
            for pos, start, end, left, right in self.res.sub(w):
                # odd degrees: + L gamma at the flush-right divisor,
                # - gamma R at the flush-left one; in degree 1 these are
                # the target and the source vertex of the arrow
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
        """Both dimension columns and the class counts in degrees 0..top,
        built once; report.hh_section slices the rows a cap reports."""
        formula = self.hh_formula()
        matrix = self.hh_matrix()
        rows = [HHRow(n, formula[n], matrix[n], self.class_counts(n))
                for n in range(self.top + 1)]
        return HHTable(rows)

    # -- kernel/image audit --------------------------------------------------

    def ker_im_audit(self, n: int) -> list[CheckResult]:
        """Compare ranks against the counting description of the kernel and
        image of the degree-n cochain map, and check the extension
        bijections between decorated classes degree by degree."""
        if not 2 <= n <= self.top + 1:
            raise ValueError(
                f"the audit runs in degrees 2..{self.top + 1}, not {n}")
        prev = self.class_counts(n - 1)
        cur = self.class_counts(n)
        ker_count = prev["-(0,0)-"] + prev["(1,0)"] + prev["-(0,1)"] + prev["(1,1)"]
        im_count = cur["--(0,1)"] + cur["(1,0)"] + cur["(1,1)"]
        return [
            CheckResult("kernel-count", self.nullity(n) == ker_count,
                        f"nullity {self.nullity(n)} vs counted {ker_count}"),
            CheckResult("image-count", self.rank(n) == im_count,
                        f"rank {self.rank(n)} vs counted {im_count}"),
            CheckResult("left-extension-bijection",
                        prev["-(0,0)+"] == cur["--(0,1)"],
                        f"{prev['-(0,0)+']} vs {cur['--(0,1)']}"),
            CheckResult("right-extension-bijection",
                        prev["+(0,0)-"] == cur["(1,0)--"],
                        f"{prev['+(0,0)-']} vs {cur['(1,0)--']}"),
            CheckResult("shared-image-bijection",
                        *self._shared_image_check(n)),
            CheckResult("phi-count", cur["(1,0)+"] == cur["+(0,1)"],
                        f"{cur['(1,0)+']} vs {cur['+(0,1)']}"),
            CheckResult("psi-count", cur["(1,0)-+"] == cur["+-(0,1)"],
                        f"{cur['(1,0)-+']} vs {cur['+-(0,1)']}"),
        ]

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
