"""Shared oracle helpers written independently of the package internals
they are meant to check."""

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import lcm

from stringcoh.cup import (
    Cochain,
    _augments_to,
    _require_cocycle,
    comparison_terms,
    is_cocycle,
)
from stringcoh.hochschild import COUNT_KEYS
from stringcoh.linalg import CertificateError, RationalMatrix
from stringcoh.presentation import basis_P
from stringcoh.quiver import CyclicQuiverError
from stringcoh.resolution import BimoduleTerm, Resolution, apply_map


class CompositionError(ValueError):
    """Raised when two paths with mismatched endpoints are composed."""


@dataclass(frozen=True)
class Path:
    """The oracle's path type: a directed path, stored as its vertex ids
    and arrow ids.  The package names a path by its arrow word alone
    (plus the vertex of a trivial path); the oracles below build Paths
    from the quiver to check it by an independent route.

    ``vertices`` has one more entry than ``arrows``; a trivial path at x
    is ``Path((x,), ())``.
    """

    vertices: tuple[int, ...]
    arrows: tuple[int, ...]

    def __post_init__(self):
        assert len(self.vertices) == len(self.arrows) + 1

    def __len__(self):
        return len(self.arrows)

    @property
    def source(self) -> int:
        return self.vertices[0]

    @property
    def target(self) -> int:
        return self.vertices[-1]

    @property
    def is_trivial(self) -> bool:
        return not self.arrows

    def subpath(self, i: int, j: int) -> "Path":
        """The subpath spanning positions i..j (0 <= i <= j <= len)."""
        assert 0 <= i <= j <= len(self.arrows)
        return Path(self.vertices[i : j + 1], self.arrows[i:j])

    def prefix(self, j: int) -> "Path":
        return self.subpath(0, j)

    def suffix(self, i: int) -> "Path":
        return self.subpath(i, len(self.arrows))

    @property
    def sort_key(self):
        """Canonical order: by length, then arrow ids, then base vertex."""
        return (len(self.arrows), self.arrows, self.vertices[0])


def compose(p: Path, q: Path) -> Path:
    """Concatenation of p and q; requires target(p) = source(q)."""
    if p.target != q.source:
        raise CompositionError(
            f"cannot compose: target {p.target} != source {q.source}"
        )
    return Path(p.vertices + q.vertices[1:], p.arrows + q.arrows)


def path(q, base: int, arrows) -> Path:
    """The path of the quiver q from a base vertex along composable arrow
    ids."""
    verts = [base]
    for a in arrows:
        if q.arrow_source[a] != verts[-1]:
            raise CompositionError(
                f"arrow {q.arrow_labels[a]} does not start at vertex "
                f"{q.vertex_labels[verts[-1]]}"
            )
        verts.append(q.arrow_target[a])
    return Path(tuple(verts), tuple(arrows))


def trivial_path(q, v: int) -> Path:
    return Path((v,), ())


def arrow_path(q, a: int) -> Path:
    return Path((q.arrow_source[a], q.arrow_target[a]), (a,))


def word_path(q, word) -> Path:
    """The path of a nonempty arrow word, such as a relation."""
    return path(q, q.arrow_source[word[0]], word)


def support(q, e) -> Path:
    """The support of the AP element e as a Path."""
    return path(q, e.source, e.word)


def fmt(pres, p: Path) -> str:
    """The label of a Path, as the package prints its arrow word."""
    return pres.quiver.format_word(p.arrows, p.source)


def basis_path(basis, i: int) -> Path:
    """The basis path with id i as a Path, built from the quiver."""
    return path(basis.pres.quiver, basis.sources[i], basis.words[i])


def basis_paths(basis) -> list[Path]:
    """Every basis path as a Path, in id order."""
    return [basis_path(basis, i) for i in range(basis.dim)]


def basis_id(basis, p: Path) -> int | None:
    """The id of the path p in the basis, or None when p is not a basis
    path."""
    return basis.word_index.get(p.arrows) if p.arrows else p.source


def ap_sets(pres, max_degree: int | None = None):
    """Per-degree AP layers of the resolution of pres, left-greedy
    construction."""
    return Resolution(pres, basis_P(pres), max_degree).ap


def from_rows(data) -> RationalMatrix:
    """The matrix with these dense rows."""
    data = [list(r) for r in data]
    m = RationalMatrix(len(data), len(data[0]) if data else 0)
    for i, row in enumerate(data):
        for j, v in enumerate(row):
            m.add_at(i, j, v if type(v) is int else Fraction(v))
    return m


def entry(mat, r: int, c: int) -> Fraction:
    return Fraction(mat._rows[r].get(c, 0))


def dense(vec: dict, n: int) -> list[Fraction]:
    """The length-n list of a sparse {index: value} vector."""
    out = [Fraction(0)] * n
    for i, v in vec.items():
        out[i] = Fraction(v)
    return out


def apply(mat, vec) -> list[Fraction]:
    """Matrix-vector product, vec indexed by columns."""
    assert len(vec) == mat.cols
    out = [Fraction(0)] * mat.rows
    for i, j, v in mat.items():
        out[i] += v * vec[j]
    return out


def to_dense(mat) -> list[list[Fraction]]:
    return [[entry(mat, i, j) for j in range(mat.cols)] for i in range(mat.rows)]


def transpose(mat) -> RationalMatrix:
    t = RationalMatrix(mat.cols, mat.rows)
    for i, j, v in mat.items():
        t.add_at(j, i, v)
    return t


def global_bareiss(rows: list[dict[int, int]], ncols: int):
    """Fraction-free elimination of the whole matrix at once: every active
    row is swept on every pivot, whatever block it lies in.  Pivot choice
    as in linalg (smallest |entry|, then sparsity, then row order); the
    oracle for the blockwise elimination.  Returns (pivots, rows), pivots
    in elimination order."""
    rows = [dict(r) for r in rows]
    active = list(range(len(rows)))
    pivots: list[tuple[int, int]] = []
    prev = 1
    for j in range(ncols):
        best = None
        for r in active:
            a = rows[r].get(j)
            if a:
                key = (abs(a), len(rows[r]))
                if best is None or key < best[0]:
                    best = (key, r)
        if best is None:
            continue
        r0 = best[1]
        active.remove(r0)
        pivots.append((r0, j))
        piv = rows[r0][j]
        prow = rows[r0]
        for r in active:
            row = rows[r]
            a = row.get(j, 0)
            new: dict[int, int] = {}
            for c in row.keys() | (prow.keys() if a else ()):
                v = row.get(c, 0) * piv - a * prow.get(c, 0)
                if v:
                    q, rem = divmod(v, prev)
                    assert not rem, "fraction-free division must be exact"
                    new[c] = q
            new.pop(j, None)
            rows[r] = new
        prev = piv
    return pivots, rows


def _scaled_rows(rows) -> list[dict[int, int]]:
    out = []
    for row in rows:
        fracs = {c: Fraction(v) for c, v in row.items()}
        scale = lcm(*(f.denominator for f in fracs.values())) if fracs else 1
        out.append({c: int(f * scale) for c, f in fracs.items()})
    return out


def _global_solve(rows, pivots, seed: dict, ncols: int) -> list[Fraction]:
    """Back substitution through every pivot, in reverse elimination order."""
    x = dict(seed)
    for r, c in reversed(pivots):
        s = sum((v * x[cc] for cc, v in rows[r].items()
                 if cc != c and cc in x), Fraction(0))
        x[c] = -s / rows[r][c]
    return [x.get(c, Fraction(0)) for c in range(ncols)]


def _row_dicts(mat) -> list[dict]:
    rows = [{} for _ in range(mat.rows)]
    for i, j, v in mat.items():
        rows[i][j] = v
    return rows


def global_pivot_columns(mat) -> list[int]:
    pivots, _ = global_bareiss(_scaled_rows(_row_dicts(mat)), mat.cols)
    return [c for _, c in pivots]


def global_nullspace(mat) -> list[list[Fraction]]:
    """One dense kernel vector per free column, with a 1 there, solved
    over every pivot of the global elimination."""
    pivots, rows = global_bareiss(_scaled_rows(_row_dicts(mat)), mat.cols)
    used = {c for _, c in pivots}
    return [_global_solve(rows, pivots, {f: Fraction(1)}, mat.cols)
            for f in range(mat.cols) if f not in used]


def global_in_column_space(mat, vec):
    """(True, preimage zero off the pivot columns) or (False, y) with
    y M = 0 and y.vec != 0, from one global elimination of [M | vec | I]."""
    n = mat.cols
    rows = _row_dicts(mat)
    for i, row in enumerate(rows):
        if vec[i]:
            row[n] = vec[i]
        row[n + 1 + i] = 1
    pivots, rows = global_bareiss(_scaled_rows(rows), n)
    used = {r for r, _ in pivots}
    for i, row in enumerate(rows):
        if i not in used and row.get(n):
            return False, [Fraction(row.get(n + 1 + k, 0))
                           for k in range(mat.rows)]
    return True, _global_solve(rows, pivots, {n: Fraction(-1)}, n)


def connected_blocks(rows, ncols: int) -> list[set[int]]:
    """Row sets of the connected components of the row-column graph over
    the first ncols columns, by breadth-first search; rows without an
    entry there are left out."""
    by_col: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        for c in row:
            if c < ncols:
                by_col.setdefault(c, []).append(i)
    seen: set[int] = set()
    out = []
    for start in range(len(rows)):
        if start in seen or not any(c < ncols for c in rows[start]):
            continue
        block, queue = {start}, [start]
        while queue:
            i = queue.pop()
            for c in rows[i]:
                for k in by_col.get(c, ()):
                    if k not in block:
                        block.add(k)
                        queue.append(k)
        seen |= block
        out.append(block)
    return out


def path_mult(basis, p, q):
    """The product of two basis paths in A, as a path: their
    concatenation, or None when they do not compose or it falls in the
    ideal.  The Path-level product that PathBasis.mult once was, kept as
    the oracle for its product on ids."""
    if p.target != q.source:
        return None
    pq = compose(p, q)
    return pq if basis_id(basis, pq) is not None else None


def path_mult3(basis, p, q, r):
    pq = path_mult(basis, p, q)
    return None if pq is None else path_mult(basis, pq, r)


def _path_left_dead(basis, gamma) -> bool:
    """Whether b * gamma is in the ideal for every arrow b into gamma's
    source, by path_mult."""
    q = basis.pres.quiver
    return all(path_mult(basis, arrow_path(q, b), gamma) is None
               for b in q.in_arrows(gamma.source))


def _path_right_dead(basis, gamma) -> bool:
    """Whether gamma * b is in the ideal for every arrow b out of gamma's
    target, by path_mult."""
    q = basis.pres.quiver
    return all(path_mult(basis, gamma, arrow_path(q, b)) is None
               for b in q.out_arrows(gamma.target))


def path_label(shares_first, shares_last, left, right, inner) -> str:
    """The decorated label of a pair from its flags, spelled out case by
    case: ``-(0,0)+``, ``(1,0)--``, ``+-(0,1)`` and so on."""
    cls = f"({int(shares_first)},{int(shares_last)})"
    sign = {True: "-", False: "+"}
    if cls == "(0,0)":
        return f"{sign[left]}{cls}{sign[right]}"
    if cls == "(1,0)":
        if not right:
            return f"{cls}+"
        return f"{cls}-{sign[inner]}"
    if cls == "(0,1)":
        if not left:
            return f"+{cls}"
        return f"{sign[inner]}-{cls}"
    return cls


def path_classify(basis, rho, gamma) -> tuple:
    """The oracle for one pair of degree >= 1, on Paths: (shares_first,
    shares_last, left_dead, right_dead, inner_dead, class_label, label).
    In degree 1 a pair shares both arrows exactly when gamma is the
    support; above it, when gamma's first (last) arrow is the support's.
    The inner decoration strips the shared arrow and asks the dead-side
    question one step in, where the side next to it is dead."""
    sup = support(basis.pres.quiver, rho)
    if rho.degree == 1:
        shares_first = shares_last = gamma == sup
    else:
        shares_first = gamma.arrows[0] == sup.arrows[0]
        shares_last = gamma.arrows[-1] == sup.arrows[-1]
    left = _path_left_dead(basis, gamma)
    right = _path_right_dead(basis, gamma)
    inner = None
    if rho.degree >= 2 and shares_first and not shares_last and right:
        inner = _path_right_dead(basis, gamma.suffix(1))
    if rho.degree >= 2 and shares_last and not shares_first and left:
        inner = _path_left_dead(basis, gamma.prefix(len(gamma) - 1))
    flags = (shares_first, shares_last, left, right, inner)
    return flags + (f"({int(shares_first)},{int(shares_last)})",
                    path_label(*flags))


def path_pairs(cx, n: int) -> list[tuple]:
    """The oracle for CochainComplex.pairs(n), by enumerating every basis
    path parallel to each support: (rho, gamma, id of gamma) followed by
    path_classify's fields, or five flags and two labels of None in
    degree 0."""
    basis = cx.basis
    paths = basis_paths(basis)
    parallel: dict[tuple[int, int], list] = {}
    for g, gamma in enumerate(paths):
        parallel.setdefault((gamma.source, gamma.target), []).append(g)
    out = []
    for rho in cx.res.ap[n] if 0 <= n <= cx.top else ():
        for g in parallel.get((rho.source, rho.target), ()):
            gamma = paths[g]
            fields = (path_classify(basis, rho, gamma) if n
                      else (None,) * 7)
            out.append((rho, gamma, g) + fields)
    return out


def path_class_counts(cx, n: int) -> dict[str, int]:
    """The oracle for CochainComplex.class_counts(n): every pair counted
    under its class, its decorated label when that differs, and the
    dead-side refinements (1,0)- and -(0,1) from its flags."""
    counts = {k: 0 for k in COUNT_KEYS}
    for _, _, _, _, _, left, right, _, cls, label in (path_pairs(cx, n)
                                                      if n else ()):
        counts[cls] += 1
        if label != cls:
            counts[label] += 1
        if cls == "(1,0)" and right:
            counts["(1,0)-"] += 1
        if cls == "(0,1)" and left:
            counts["-(0,1)"] += 1
    return counts


def basis_label(res, i: int) -> str:
    """The label of the basis path with id i."""
    return fmt(res.pres, basis_path(res.basis, i))


def ap_label(res, e) -> str:
    """The label of the support of the AP element e."""
    return fmt(res.pres, support(res.quiver, e))


def middle_label(res, n: int, term) -> str:
    """The label of the support of a term's middle, an element of AP_n."""
    return ap_label(res, res.ap[n][term.middle])


def occurrences(w_sub: Path, w: Path) -> list[tuple[Path, Path]]:
    """All factorizations w = L * w_sub * R, in left-to-right order.

    Trivial cofactors are allowed here; division in the strict sense
    additionally requires |L| + |R| > 0, which callers filter.  A trivial
    w_sub occurs at every visit of w to its base vertex.
    """
    out = []
    k = len(w_sub)
    for i in range(len(w) - k + 1):
        if w.arrows[i : i + k] == w_sub.arrows and w.vertices[i] == w_sub.source:
            out.append((w.prefix(i), w.suffix(i + k)))
    return out


def divides(w_sub, w) -> bool:
    """Strict division: w = L * w_sub * R with |L| + |R| > 0."""
    return any(len(l) + len(r) > 0 for l, r in occurrences(w_sub, w))


def decompose(res, w, n: int, m: int):
    """The unique splitting support = head * u * tail of w in
    AP_{n+m}, n + m >= 2, as (head, u, tail): head the element of AP_n
    that is a chain prefix, tail the element of AP_m that is a dual-chain
    suffix, u a basis path.  The Path-level route that Resolution.split
    replaced, with the same CertificateErrors."""
    assert n >= 0 and m >= 0 and n + m == w.degree and n + m >= 2
    q = res.quiver
    sup = support(q, w)
    if n <= 1:
        head_sup = sup.prefix(n)
    else:
        rel = word_path(q, w.chain[n - 2])
        head_sup = sup.prefix(_path_start(rel, sup) + len(rel))
    if m <= 1:
        tail_sup = sup.suffix(len(sup) - m)
    else:
        tail_sup = sup.suffix(_path_start(word_path(q, w.op_chain[n]), sup))
    head = next((e for e in res.ap[n] if support(q, e) == head_sup), None)
    tail = next((e for e in res.ap[m] if support(q, e) == tail_sup), None)
    if head is None or tail is None:
        raise CertificateError("splitting fell outside the computed AP sets")
    i, j = len(head_sup), len(sup) - len(tail_sup)
    if i > j:
        raise CertificateError("head and tail of the splitting overlap")
    u = sup.subpath(i, j)
    if basis_id(res.basis, u) is None:
        raise CertificateError("middle of the splitting is not a basis path")
    return head, u, tail


def _path_start(rel, w) -> int:
    """Start of the first occurrence of the path rel inside the path w."""
    for left, _ in occurrences(rel, w):
        return len(left)
    raise CertificateError("chain relation does not occur in its support")


def path_splittings(cx, n: int, m: int) -> list:
    """CochainComplex.splittings(n, m) on Paths: decompose, then the
    occurrences of AP_n in head * u by scan_occurrences, ordered by
    offset and then by AP position, cofactors looked up by basis_id."""
    out = []
    for w in cx.res.ap[n + m]:
        if n == 0:
            out.append((w.pos, (), 0))
            continue
        head, u, tail = decompose(cx.res, w, n, m)
        found = sorted(scan_occurrences(
            cx.res, n, compose(support(cx.res.quiver, head), u)),
            key=lambda o: (len(o[0]), o[1].pos))
        divisors = []
        for left, psi, right in found:
            left, right = basis_id(cx.basis, left), basis_id(cx.basis, right)
            if left is not None and right is not None:
                divisors.append((left, psi.pos, right))
        out.append((tail.pos, tuple(divisors), len(found)))
    return out


def path_leibniz_slots(cx, n: int) -> list:
    """CochainComplex.leibniz_slots(n) on Paths, by the route that read
    the occurrences of AP_n in each w of AP_{n+1} without its last arrow:
    scan_occurrences, ordered by offset and then by AP position, then
    every arrow alpha between psi and that last arrow, cofactors looked up
    by basis_id."""
    q = cx.res.quiver
    out = []
    for w in cx.res.ap[n + 1]:
        sup = support(q, w)
        last = len(sup) - 1
        found = sorted(scan_occurrences(cx.res, n, sup.prefix(last)),
                       key=lambda o: (len(o[0]), o[1].pos))
        slots = []
        for left, psi, _ in found:
            left_id = basis_id(cx.basis, left)
            if left_id is None:
                continue
            b = len(left) + len(psi.word)
            for j in range(b, last):
                mid = basis_id(cx.basis, sup.subpath(b, j))
                rest = basis_id(cx.basis, sup.suffix(j + 1))
                if mid is not None and rest is not None:
                    slots.append((left_id, psi.pos, sup.arrows[j], mid, rest))
        out.append(tuple(slots))
    return out


def division_positions(cx, n: int, w) -> int:
    """Number of degree-n divisor positions in the comparison sum at w:
    the occurrences of AP_n in head * u, whether or not their cofactors
    survive, by a fresh decompose and scan_occurrences."""
    head, u, _ = decompose(cx.res, w, n, w.degree - n)
    return len(scan_occurrences(cx.res, n,
                                compose(support(cx.res.quiver, head), u)))


def odd_positions_max(cx) -> int:
    """CupReport.odd_positions_max by division_positions: the most
    divisor positions of odd degree n at any w in AP_{n+m}, over the
    degrees n and m <= top - n with nonzero cohomology."""
    dims = cx.hh_matrix()
    return max((division_positions(cx, n, w)
                for n in range(1, cx.top + 1, 2) if dims[n]
                for m in range(1, cx.top - n + 1) if dims[m]
                for w in cx.res.ap[n + m]), default=0)


def enumerate_paths(quiver, max_length: int | None = None) -> list:
    """Every path of the quiver, ordered by (length, arrow ids).

    Includes all trivial paths.  Requires acyclicity, which bounds the
    enumeration by the longest path.
    """
    if not quiver.is_acyclic():
        raise CyclicQuiverError("path enumeration needs an acyclic quiver")
    frontier = [trivial_path(quiver, v) for v in range(quiver.num_vertices)]
    out = list(frontier)
    length = 0
    while frontier and (max_length is None or length < max_length):
        nxt = []
        for p in sorted(frontier, key=lambda q: q.arrows):
            for a in sorted(quiver.out_arrows(p.target)):
                nxt.append(compose(p, arrow_path(quiver, a)))
        out.extend(nxt)
        frontier = nxt
        length += 1
    return out


def bar_dims(basis, up_to: int) -> list[int]:
    """Hochschild cohomology dimensions 0..up_to via the classical cochain
    complex Hom(A^(tensor n), A) with its alternating-sum differential.

    Only the multiplication table of the algebra is used: mult(p, q) is a
    basis path or None, from the Path-level oracle path_mult.  Tuples are
    NOT required to be composable (the tensor power is over the ground
    field).
    """
    paths = basis_paths(basis)
    d = len(paths)
    index = {p: i for i, p in enumerate(paths)}

    def mult(p, q):
        return path_mult(basis, p, q)

    def delta(n: int) -> RationalMatrix:
        """The map from n-cochains to (n+1)-cochains."""
        if n == 0:
            # a |-> (x |-> x a - a x)
            mat = RationalMatrix(d * d, d)
            for j, a in enumerate(paths):
                for xi, x in enumerate(paths):
                    xa = mult(x, a)
                    if xa is not None:
                        mat.add_at(xi * d + index[xa], j, 1)
                    ax = mult(a, x)
                    if ax is not None:
                        mat.add_at(xi * d + index[ax], j, -1)
            return mat
        cols_tuples = list(product(range(d), repeat=n))
        col_of = {t: k for k, t in enumerate(cols_tuples)}
        rows_tuples = list(product(range(d), repeat=n + 1))
        row_of = {t: k for k, t in enumerate(rows_tuples)}
        mat = RationalMatrix(len(rows_tuples) * d, len(cols_tuples) * d)

        def add(row_tuple, out_path, col, coeff):
            mat.add_at(row_of[row_tuple] * d + index[out_path], col, coeff)

        for t in cols_tuples:
            for b_i, b in enumerate(paths):
                col = col_of[t] * d + b_i
                # a1 . f(a2 ... a_{n+1})
                for a_i, a in enumerate(paths):
                    ab = mult(a, b)
                    if ab is not None:
                        add((a_i,) + t, ab, col, 1)
                # f(a1, ..., a_i a_{i+1}, ..., a_{n+1}), alternating signs
                for i in range(n):
                    v = paths[t[i]]
                    sign = -1 if (i + 1) % 2 else 1
                    for cut in range(len(v) + 1):
                        x, y = v.prefix(cut), v.suffix(cut)
                        row = t[:i] + (index[x], index[y]) + t[i + 1 :]
                        add(row, b, col, sign)
                # f(a1 ... a_n) . a_{n+1}
                sign = -1 if (n + 1) % 2 else 1
                for a_i, a in enumerate(paths):
                    ba = mult(b, a)
                    if ba is not None:
                        add(t + (a_i,), ba, col, sign)
        return mat

    dims = []
    prev_rank = 0
    for n in range(up_to + 1):
        dn = delta(n)
        rank = dn.echelon().rank
        dims.append(dn.cols - rank - prev_rank)
        prev_rank = rank
    return dims


def dense_lift_values(cx, f, terms):
    """cup._lift_values by a walk over every generator: the generator
    values terms(cx, f, n, w) of a lift of f for every w in AP_{n+m}, one
    dict per degree n with n + m <= top, or None if the augmentation or a
    commuting square fails on some generator."""
    _require_cocycle(cx, f)
    m = f.degree
    res = cx.res
    layer = res.ap[m] if m <= res.top else ()
    values = [{w.pos: terms(cx, f, 0, w) for w in layer}]
    if not all(_augments_to(cx, f, w, values[0][w.pos]) for w in layer):
        return None
    for n in range(1, res.top - m + 1):
        d_n, d_nm = res.differential(n), res.differential(n + m)
        cur = {}
        for w in res.ap[n + m]:
            val = cur[w.pos] = terms(cx, f, n, w)
            if (apply_map(cx.basis, val, d_n)
                    != apply_map(cx.basis, d_nm[w.pos], values[-1])):
                return None
        values.append(cur)
    return values


def global_lift_audit(cx, f, terms) -> bool:
    """Whether the lift given by terms is a chain map, decided on the
    realized A (x) kAP (x) A bases: mu F_0 equals f as a matrix, and
    d_n F_n = F_{n-1} d_{n+m} as matrices in every degree that carries
    anything.  The global-matrix counterpart of the generator audit."""
    m = f.degree
    res = cx.res
    if m > res.top:
        return True
    cols, _ = res.bimodule_space(m)
    f_map = RationalMatrix(cx.basis.dim, len(cols))
    for j, (l, w, r) in enumerate(cols):
        for c, gamma in f.terms_at(cx, w):
            prod = cx.basis.mult3(l, gamma, r)
            if prod is not None:
                f_map.add_at(prod, j, c)
    prev = comparison_matrix(cx, f, 0, terms)
    if res.mu_matrix() @ prev != f_map:
        return False
    for n in range(1, res.top - m + 1):
        cur = comparison_matrix(cx, f, n, terms)
        if res.d_matrix(n) @ cur != prev @ res.d_matrix(n + m):
            return False
        prev = cur
    return True


def bimodule_extension(res, mat, n: int, k: int) -> RationalMatrix:
    """The bimodule map from degree k to degree n of the resolution whose
    value on each generator 1 (x) w (x) 1 is the column of mat at that
    generator, realized on the bimodule bases: the column at (l, w, r)
    is l times that value times r."""
    mult = res.basis.mult
    rows, row_index = res.bimodule_space(n)
    cols, col_index = res.bimodule_space(k)
    by_col = {}
    for i, j, v in mat.items():
        by_col.setdefault(j, []).append((i, v))
    out = RationalMatrix(len(rows), len(cols))
    for j, (l, w, r) in enumerate(cols):
        source, target = _trivial_ends(res, k, w)
        gen = col_index[(source, w, target)]
        for i, v in by_col.get(gen, ()):
            left, psi, right = rows[i]
            lp, rp = mult(l, left), mult(right, r)
            if lp is not None and rp is not None:
                out.add_at(row_index[(lp, psi, rp)], j, v)
    return out


def _trivial_ends(res, n: int, w: int):
    """Basis ids of the trivial paths at the two ends of the support of
    element w of AP_n."""
    e = res.ap[n][w]
    return (basis_id(res.basis, trivial_path(res.quiver, e.source)),
            basis_id(res.basis, trivial_path(res.quiver, e.target)))


def dense_is_cocycle(cx, f) -> bool:
    """is_cocycle by the dense product of the next cochain map with the
    full coefficient vector of f."""
    if f.degree >= cx.top:
        return True
    vec = dense(f.coeffs, len(cx.pairs(f.degree)))
    return all(v == 0 for v in apply(cx.matrix(f.degree + 1), vec))


def scan_terms_at(cx, f, sup: Path) -> list:
    """Cochain.terms_at at the element with the support sup by a scan
    over every coefficient of f, in pair order, gamma as a basis id."""
    pairs = cx.pairs(f.degree)
    return [(c, pairs[i].gamma_id)
            for i, c in sorted(f.coeffs.items())
            if support(cx.res.quiver, pairs[i].rho) == sup]


def scan_occurrences(res, n: int, target) -> list:
    """Every (left, e, right) with e in AP_n and target = left *
    support(e) * right, in AP order and then left to right, by scanning
    all of AP_n with occurrences, as sub, divisors and
    division_positions once did."""
    layer = res.ap[n] if 0 <= n < len(res.ap) else []
    return [(l, e, r) for e in layer
            for l, r in occurrences(support(res.quiver, e), target)]


def scan_non_minimal_pairs(pres) -> list:
    """The minimal-generators witnesses by comparing every pair of
    relations: (r, r2) where r divides r2, in relation order."""
    rels = [word_path(pres.quiver, r) for r in pres.relations]
    return [(r, r2) for r in rels for r2 in rels
            if r is not r2 and occurrences(r, r2)]


def _block_rank(mat, row_paths, col_paths) -> int:
    """Rank of a realized map that preserves full paths, as the sum of the
    ranks of its blocks; an entry that leaves its block fails."""
    blocks = {}
    for i, j, v in mat.items():
        assert row_paths[i] == col_paths[j], "entry outside its block"
        blocks.setdefault(col_paths[j], []).append((i, j, v))
    rank = 0
    for entries in blocks.values():
        rows = {i: k for k, i in enumerate(dict.fromkeys(i for i, _, _ in entries))}
        cols = {j: k for k, j in enumerate(dict.fromkeys(j for _, j, _ in entries))}
        block = RationalMatrix(len(rows), len(cols))
        for i, j, v in entries:
            block.add_at(rows[i], cols[j], v)
        rank += block.echelon().rank
    return rank


def global_homology_dims(res) -> list[int]:
    """Homology of the realized augmented complex A (x) kAP (x) A -> A,
    one entry per spot: index 0 at A, index n+1 at degree n.  Ranks are
    taken block by block over the full paths l * w * r, which the
    differentials and the augmentation preserve."""
    spaces = [[full_path(res, n, t) for t in res.bimodule_space(n)[0]]
              for n in res.degrees()]
    ranks = [_block_rank(res.mu_matrix(), basis_paths(res.basis), spaces[0])]
    for n in range(1, len(spaces)):
        ranks.append(_block_rank(res.d_matrix(n), spaces[n - 1], spaces[n]))
    ranks.append(0)
    out = [res.basis.dim - ranks[0]]
    for n, space in enumerate(spaces):
        out.append(len(space) - ranks[n] - ranks[n + 1])
    return out


def global_d_squared_is_zero(res) -> bool:
    """d o d = 0 and mu d_1 = 0 as products of the realized matrices."""
    for n in range(2, len(res.ap)):
        if not (res.d_matrix(n - 1) @ res.d_matrix(n)).is_zero():
            return False
    return len(res.ap) < 2 or (res.mu_matrix() @ res.d_matrix(1)).is_zero()


def one_sided_by_full_path(res, n: int) -> dict[int, tuple[int, int]]:
    """Resolution._one_sided(n) ranked per vertex x and per full path:
    vertex x -> (dimension, rank of d_n) of P_n (x)_A S_x.  Terms of d_n
    with a trivial right cofactor keep the full path l * w, so each block
    of one full path is ranked on its own, a row per (l, w) and a column
    per psi; d_0 is the augmentation, of rank 1."""
    by_target: dict = {}
    for w in res.ap[n]:
        by_target.setdefault(w.target, []).append(w)
    diff = res.differential(n) if n else {}
    paths, mult = basis_paths(res.basis), res.basis.mult
    out = {}
    for x, layer in by_target.items():
        blocks: dict = {}
        for w in layer:
            kept = [t for t in diff.get(w.pos, ())
                    if paths[t.right].is_trivial]
            for l in res.basis.ending_at(w.source):
                col = {}
                for t in kept:
                    if mult(l, t.left) is not None:
                        col[t.middle] = col.get(t.middle, 0) + t.coeff
                blocks.setdefault(paths[l].arrows + w.word,
                                  []).append(col)
        rank = int(n == 0)
        for cols in blocks.values():
            psis = {p for c in cols for p in c}
            rank += from_rows(
                [[c.get(p, 0) for p in psis] for c in cols]).echelon().rank
        out[x] = (sum(map(len, blocks.values())), rank)
    return out


def comparison_matrix(cx, f, n: int, terms) -> RationalMatrix:
    """The degree-n lift realized on the bimodule bases, from its values
    on generators: terms(cx, f, n, w) is lift_terms (the chain-map lift),
    comparison_terms (the displayed formula), or the generator values of
    solved_lift."""
    res = cx.res
    m = f.degree
    rows, row_index = res.bimodule_space(n)
    cols, _ = res.bimodule_space(n + m)
    mat = RationalMatrix(len(rows), len(cols))
    terms_by_w = {
        w.pos: terms(cx, f, n, w) for w in res.ap[n + m]
    } if n + m <= res.top else {}
    mul = cx.basis.mult
    for j, (l, w, r) in enumerate(cols):
        for t in terms_by_w[w]:
            lp = mul(l, t.left)
            if lp is None:
                continue
            rp = mul(t.right, r)
            if rp is None:
                continue
            mat.add_at(row_index[(lp, t.middle, rp)], j, t.coeff)
    return mat


def full_path(res, n: int, triple):
    """The path l * w * r of the quiver for a basis triple (l, w, r) of
    A (x) kAP_n (x) A, before reduction modulo the ideal: the block that
    the triple lies in."""
    l, w, r = triple
    return compose(compose(basis_path(res.basis, l),
                           support(res.quiver, res.ap[n][w])),
                   basis_path(res.basis, r))


def blocks(res, n: int) -> dict:
    """Full path -> the positions in bimodule_space(n) of the triples
    (l, w, r) with that full path.  The differentials and the
    augmentation preserve the full path, so each block maps into the
    block of the same path one degree down."""
    out = {}
    for j, triple in enumerate(res.bimodule_space(n)[0]):
        out.setdefault(full_path(res, n, triple), []).append(j)
    return out


def solved_lift(cx, f) -> list[dict]:
    """A chain-map lift of f found independently of lift_terms, degree by
    degree: per degree n, w -> its value F_n(1 (x) w (x) 1) as terms,
    over AP_{n + deg f}, keyed by the position of w.

    Each generator 1 (x) w (x) 1 first tries the displayed formula
    (comparison_terms).  Where that fails its commuting square (degree-1
    cocycles with a value strictly inside a relation of length >= 3), the
    square d_n x = F_{n-1} d_{n+m} (1 (x) w (x) 1) is solved exactly, one
    block of the resolution at a time.  Exactness of the resolution
    guarantees a solution.  Every square commutes on generators, so these
    values determine a bimodule chain map.
    """
    m = f.degree
    res = cx.res
    layer = res.ap[m] if m <= res.top else ()
    values = [{w.pos: comparison_terms(cx, f, 0, w) for w in layer}]
    if not all(_augments_to(cx, f, w, values[0][w.pos]) for w in layer):
        raise CertificateError("the degree-0 lift does not augment to f")
    for n in range(1, res.top - m + 1):
        d_n, d_nm = res.differential(n), res.differential(n + m)
        cur = {}
        for w in res.ap[n + m]:
            rhs = apply_map(cx.basis, d_nm[w.pos], values[-1])
            val = comparison_terms(cx, f, n, w)
            if apply_map(cx.basis, val, d_n) != rhs:
                val = _solve_in_blocks(cx, n, rhs)
            cur[w.pos] = val
        values.append(cur)
    return values


def _solve_in_blocks(cx, n: int, rhs: dict) -> list:
    """Some x with d_n x = rhs, for rhs an element of degree n-1 of the
    resolution keyed by the id triple (left, middle, right).  d_n
    preserves the full path of every triple, so the system splits into
    one system per full path that rhs touches, each with one right-hand
    column."""
    res = cx.res
    cols_all, _ = res.bimodule_space(n)
    _, row_index = res.bimodule_space(n - 1)
    d = res.d_matrix(n)
    rows_of, cols_of = blocks(res, n - 1), blocks(res, n)
    parts = {}
    for triple, c in rhs.items():
        parts.setdefault(full_path(res, n - 1, triple), {})[row_index[triple]] = c
    out = []
    for full, part in parts.items():
        rows, cols = rows_of[full], cols_of.get(full, [])
        block = RationalMatrix(len(rows), len(cols))
        for k, i in enumerate(rows):
            for j, col in enumerate(cols):
                block.add_at(k, j, entry(d, i, col))
        ok, x = block.in_column_space(
            {k: part[i] for k, i in enumerate(rows) if i in part})
        if not ok:
            raise CertificateError("exactness guarantees a lift")
        for j, c in sorted(x.items()):
            l, psi, r = cols_all[cols[j]]
            out.append(BimoduleTerm(c, l, psi, r))
    return out


def solved_lift_matrices(cx, f) -> list[RationalMatrix]:
    """solved_lift realized on the bimodule bases, one matrix per degree."""
    values = solved_lift(cx, f)
    return [comparison_matrix(cx, f, n, lambda _cx, _f, k, w: values[k][w.pos])
            for n in range(len(values))]


def cup_with_lift(cx, g, lifts: list[RationalMatrix], f_degree: int):
    """Evaluate g on a realized lift of some degree-f_degree cocycle,
    reading the lift's columns at the generators 1 (x) w (x) 1."""
    n = g.degree
    total = n + f_degree
    if total > cx.top or n >= len(lifts):
        return Cochain(total)
    res = cx.res
    rows_basis, _ = res.bimodule_space(n)
    _, col_index = res.bimodule_space(total)
    by_col = {}
    for i, j, v in lifts[n].items():
        by_col.setdefault(j, []).append((i, v))
    index = cx.pair_index(total)
    coeffs = {}
    for w in res.ap[total]:
        source, target = _trivial_ends(res, total, w.pos)
        j = col_index[(source, w.pos, target)]
        acc = {}
        for i, v in by_col.get(j, []):
            l, psi, r = rows_basis[i]
            for cg, gam in g.terms_at(cx, psi):
                prod = cx.basis.mult3(l, gam, r)
                if prod is not None:
                    acc[prod] = acc.get(prod, Fraction(0)) + v * cg
        for path, v in acc.items():
            if v:
                coeffs[index[(w.pos, path)]] = v
    out = Cochain(total, coeffs)
    if not is_cocycle(cx, out):
        raise CertificateError("a product of cocycles must be a cocycle")
    return out
