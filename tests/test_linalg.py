import importlib
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import stringcoh
from stringcoh import linalg
from stringcoh.linalg import CertificateError, RationalMatrix
from tests_support import (
    apply,
    dense,
    entry,
    from_rows,
    global_in_column_space,
    global_nullspace,
    global_pivot_columns,
    to_dense,
    transpose,
)


def dense_rank_oracle(rows):
    """Plain Gaussian elimination over Fraction, independent of the
    fraction-free implementation under test."""
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for j in range(cols):
        piv = next((i for i in range(rank, len(m)) if m[i][j]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        pv = m[rank][j]
        for i in range(len(m)):
            if i != rank and m[i][j]:
                f = m[i][j] / pv
                for jj in range(cols):
                    m[i][jj] -= f * m[rank][jj]
        rank += 1
    return rank


def test_rank_identity():
    assert from_rows([[1, 0], [0, 1]]).echelon().rank == 2


def test_rank_zero_matrix():
    assert RationalMatrix(3, 4).echelon().rank == 0


def test_rank_dependent_rows():
    assert from_rows([[1, 2], [2, 4]]).echelon().rank == 1


def test_nullspace_identity_empty():
    assert from_rows([[1, 0], [0, 1]]).echelon().nullspace() == []


def test_nullspace_zero_matrix_standard_basis():
    basis = RationalMatrix(3, 3).echelon().nullspace()
    assert len(basis) == 3
    for i, vec in enumerate(basis):
        vec = dense(vec, 3)
        assert vec[i] == 1 and sum(map(abs, vec)) == 1


def test_nullspace_line():
    (vec,) = from_rows([[1, 1]]).echelon().nullspace()
    vec = dense(vec, 2)
    assert vec[0] == -vec[1] != 0


def test_in_column_space_identity():
    ok, x = from_rows([[1, 0], [0, 1]]).in_column_space({0: 3, 1: 5})
    assert ok and dense(x, 2) == [3, 5]


def test_in_column_space_zero_matrix():
    ok, cert = RationalMatrix(2, 2).in_column_space({0: 1})
    assert not ok
    assert dense(cert, 2)[0] != 0


def test_in_column_space_single_column():
    ok, x = from_rows([[1], [2]]).in_column_space({0: 2, 1: 4})
    assert ok and dense(x, 1) == [2]


def test_in_column_space_dimension_mismatch():
    with pytest.raises(ValueError):
        from_rows([[1], [2]]).in_column_space({0: 1, 1: 2, 2: 3})


@pytest.mark.parametrize("vec", [{-1: 1}, {2: 1}, {0: 1, 5: 0}])
def test_in_column_space_row_key_outside_raises(vec):
    """Every key is checked, a zero value's too; at a negative key a dense
    list would have read from its end."""
    with pytest.raises(ValueError, match=r"row keys must lie in range\(2\)"):
        from_rows([[1], [2]]).in_column_space(vec)


def test_matmul_and_transpose():
    a = from_rows([[1, 2], [0, 1]])
    b = from_rows([[1, 0], [3, 1]])
    assert to_dense(a @ b) == [[7, 2], [3, 1]]
    assert to_dense(transpose(a)) == [[1, 0], [2, 1]]


def test_matmul_dimension_mismatch():
    a = from_rows([[1, 2], [0, 1]])
    with pytest.raises(ValueError, match="dimension mismatch"):
        a @ from_rows([[1, 0, 2]])


small_matrices = st.integers(1, 5).flatmap(
    lambda n: st.integers(1, 5).flatmap(
        lambda m: st.lists(
            st.lists(st.integers(-4, 4), min_size=m, max_size=m),
            min_size=n, max_size=n,
        )
    )
)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rank_matches_dense_oracle(rows):
    assert from_rows(rows).echelon().rank == dense_rank_oracle(rows)


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rank_of_transpose(rows):
    m = from_rows(rows)
    assert m.echelon().rank == transpose(m).echelon().rank


@settings(max_examples=150, deadline=None)
@given(small_matrices)
def test_rank_nullity(rows):
    m = from_rows(rows)
    basis = m.echelon().nullspace()
    assert m.echelon().rank + len(basis) == m.cols
    for vec in basis:
        assert all(v == 0 for v in apply(m, dense(vec, m.cols)))


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.lists(st.integers(-3, 3), min_size=1, max_size=5))
def test_column_space_membership_of_combinations(rows, coeffs):
    m = from_rows(rows)
    coeffs = (coeffs * m.cols)[: m.cols]
    vec = [
        sum(Fraction(rows[i][j]) * coeffs[j] for j in range(m.cols))
        for i in range(m.rows)
    ]
    ok, x = m.in_column_space(dict(enumerate(vec)))
    assert ok
    x = dense(x, m.cols)
    assert apply(m, x) == [Fraction(v) for v in vec]
    # the canonical preimage: zero off the pivot columns
    pivots = set(m.pivot_columns())
    assert all(x[j] == 0 for j in range(m.cols) if j not in pivots)


@settings(max_examples=100, deadline=None)
@given(small_matrices, st.lists(st.integers(-3, 3), min_size=1, max_size=5))
def test_rejection_certificate(rows, target):
    m = from_rows(rows)
    vec = (target * m.rows)[: m.rows]
    ok, witness = m.in_column_space(dict(enumerate(vec)))
    witness = dense(witness, m.cols if ok else m.rows)
    if ok:
        assert apply(m, witness) == [Fraction(v) for v in vec]
    else:
        # the certificate is a left functional killing M but not vec
        prods = [
            sum(witness[i] * entry(m, i, j) for i in range(m.rows))
            for j in range(m.cols)
        ]
        assert all(p == 0 for p in prods)
        assert sum(witness[i] * vec[i] for i in range(m.rows)) != 0


@settings(max_examples=60, deadline=None)
@given(small_matrices)
def test_in_column_space_roundtrip(rows):
    m = from_rows(rows)
    b = m @ transpose(m)  # columns certainly in the span
    for col in to_dense(transpose(b)):
        ok, x = m.in_column_space(dict(enumerate(col)))
        assert ok
        assert apply(m, dense(x, m.cols)) == col


def test_fractional_entries():
    m = from_rows([[Fraction(1, 2), 1], [Fraction(1, 4), Fraction(1, 2)]])
    assert m.echelon().rank == 1
    (vec,) = m.echelon().nullspace()
    assert all(v == 0 for v in apply(m, dense(vec, m.cols)))
    # [M | v | I] is scaled to integers row by row, v's denominators included
    inside = [Fraction(1, 3), Fraction(1, 6)]
    ok, x = m.in_column_space(dict(enumerate(inside)))
    assert ok and apply(m, dense(x, m.cols)) == inside
    outside = [Fraction(1, 3), Fraction(1, 5)]
    ok, y = m.in_column_space(dict(enumerate(outside)))
    assert not ok
    y = dense(y, m.rows)
    assert all(sum(y[i] * entry(m, i, j) for i in range(m.rows)) == 0
               for j in range(m.cols))
    assert sum(y[i] * outside[i] for i in range(m.rows)) != 0


entries = st.one_of(
    st.just(0),
    st.integers(-3, 3),
    st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3)),
)


@st.composite
def block_diagonal(draw):
    """A block-diagonal matrix with its rows and columns shuffled, built
    with add_at so that int and Fraction entries both stay as drawn.  A
    block without columns gives empty rows, one without rows empty
    columns."""
    shapes = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                           min_size=1, max_size=5))
    nrows = sum(h for h, _ in shapes)
    ncols = sum(w for _, w in shapes)
    row_at = draw(st.permutations(range(nrows)))
    col_at = draw(st.permutations(range(ncols)))
    m = RationalMatrix(nrows, ncols)
    r0 = c0 = 0
    for h, w in shapes:
        for i in range(h):
            for j in range(w):
                m.add_at(row_at[r0 + i], col_at[c0 + j], draw(entries))
        r0 += h
        c0 += w
    return m


@settings(max_examples=200, deadline=None)
@given(block_diagonal())
def test_blockwise_elimination_matches_global_oracle(m):
    pivots = global_pivot_columns(m)
    assert m.pivot_columns() == pivots
    assert m.echelon().rank == len(pivots)
    assert ([dense(v, m.cols) for v in m.echelon().nullspace()]
            == global_nullspace(m))


@settings(max_examples=200, deadline=None)
@given(block_diagonal(), st.data())
def test_blockwise_column_space_matches_global_oracle(m, data):
    coeffs = data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols))
    inside = apply(m, coeffs)
    ok, x = m.in_column_space(dict(enumerate(inside)))
    assert ok and (True, dense(x, m.cols)) == global_in_column_space(m, inside)

    vec = data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))
    ok, w = m.in_column_space(dict(enumerate(vec)))
    w = dense(w, m.cols if ok else m.rows)
    oracle_ok, oracle_w = global_in_column_space(m, vec)
    assert ok == oracle_ok
    if ok:
        assert w == oracle_w
        return
    # the certificate: y M = 0, y.vec != 0, a multiple of the oracle's
    assert all(sum(w[i] * entry(m, i, j) for i in range(m.rows)) == 0
               for j in range(m.cols))
    assert sum(w[i] * vec[i] for i in range(m.rows)) != 0
    k = next(i for i, v in enumerate(oracle_w) if v)
    ratio = w[k] / oracle_w[k]
    assert ratio and all(a == ratio * b for a, b in zip(w, oracle_w))


def assert_sparse(vec: dict, n: int):
    """A sparse vector of length n: int keys in 0..n-1, no zero value."""
    assert all(type(k) is int and 0 <= k < n and v for k, v in vec.items())


@settings(max_examples=200, deadline=None)
@given(st.one_of(small_matrices.map(from_rows), block_diagonal()), st.data())
def test_vectors_out_are_sparse(m, data):
    """Kernel vectors, preimages and certificates hold only the nonzero
    entries of a vector of the matrix's own length."""
    for vec in m.echelon().nullspace():
        assert_sparse(vec, m.cols)
    coeffs = data.draw(st.lists(entries, min_size=m.cols, max_size=m.cols))
    ok, x = m.in_column_space(dict(enumerate(apply(m, coeffs))))
    assert ok
    assert_sparse(x, m.cols)
    vec = data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))
    ok, w = m.in_column_space(dict(enumerate(vec)))
    assert_sparse(w, m.cols if ok else m.rows)


def test_certificate_error_is_one_class():
    assert stringcoh.CertificateError is CertificateError
    cup = importlib.import_module("stringcoh.cup")
    assert cup.CertificateError is CertificateError


def test_inexact_division_raises(monkeypatch):
    """The one fraction-free division of _bareiss raises, never asserts."""
    monkeypatch.setattr(linalg, "divmod", lambda a, b: (a // b, 1),
                        raising=False)
    with pytest.raises(CertificateError,
                       match="fraction-free division must be exact"):
        from_rows([[1, 1], [1, 2]]).echelon()
    # M's and v's columns cancel here, so only the identity columns divide
    with pytest.raises(CertificateError,
                       match="fraction-free division must be exact"):
        from_rows([[1], [1]]).in_column_space({0: 1, 1: 1})


def test_malformed_left_null_certificate_raises(monkeypatch):
    real = linalg._bareiss

    def skewed(rows, ncols):
        pivots, rows = real(rows, ncols)
        used = {r for r, _ in pivots}
        for i, row in enumerate(rows):
            if i not in used and row:
                row[0] = 1
        return pivots, rows

    monkeypatch.setattr(linalg, "_bareiss", skewed)
    with pytest.raises(CertificateError, match="left-null"):
        from_rows([[1], [1]]).in_column_space({0: 1, 1: 2})
