"""Shared oracle helpers written independently of the package internals
they are meant to check."""

from itertools import product

from stringcoh.cup import comparison_matrix
from stringcoh.linalg import RationalMatrix


def bar_dims(basis, up_to: int) -> list[int]:
    """Hochschild cohomology dimensions 0..up_to via the classical cochain
    complex Hom(A^(tensor n), A) with its alternating-sum differential.

    Only the multiplication table of the algebra is used: mult(p, q) is a
    basis path or None.  Tuples are NOT required to be composable (the
    tensor power is over the ground field).
    """
    paths = list(basis.paths)
    d = len(paths)
    index = {p: i for i, p in enumerate(paths)}
    mult = basis.mult

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
        dims.append(dn.cols - dn.rank() - prev_rank)
        prev_rank = dn.rank()
    return dims


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
        for c, gamma in f.terms_at(cx, w.support):
            prod = cx.basis.mult3(l, gamma, r)
            if prod is not None:
                f_map.add_at(cx.basis.index[prod], j, c)
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
        sup = w.support
        gen = col_index[(res.quiver.trivial_path(sup.source), w,
                         res.quiver.trivial_path(sup.target))]
        for i, v in by_col.get(gen, ()):
            left, psi, right = rows[i]
            lp, rp = mult(l, left), mult(right, r)
            if lp is not None and rp is not None:
                out.add_at(row_index[(lp, psi, rp)], j, v)
    return out


def dense_is_cocycle(cx, f) -> bool:
    """is_cocycle by the dense product of the next cochain map with the
    full coefficient vector of f."""
    if f.degree >= cx.top:
        return True
    return all(v == 0 for v in cx.matrix(f.degree + 1).apply(f.vector(cx)))


def scan_terms_at(cx, f, support) -> list:
    """Cochain.terms_at by a scan over every coefficient of f, in pair
    order."""
    pairs = cx.pairs(f.degree)
    return [(c, pairs[i].gamma) for i, c in sorted(f.coeffs.items())
            if pairs[i].rho.support == support]
