"""Exact rational matrices: rank, nullspace, pivot columns, and certified
column-space membership.

The elimination core is fraction-free (Bareiss): rows are cleared to
integers once, then every update is
``row <- (pivot * row - row[j] * pivot_row) / previous_pivot`` with an
exact integer division.  Arbitrary-precision integers make this safe at
any size; pivots are chosen small and sparse to contain growth.  The
matrices produced upstream have entries in {-1, 0, 1} and are very
sparse, so rows are stored as column->value dicts.

All four queries run that one elimination.  Column-space membership
eliminates [M | v | I] with pivots in M's columns: a row left without a
pivot but with an entry under v is a left-null certificate, read off the
identity columns.  Kernel vectors and preimages come from one back
substitution, seeded with a free column set to 1 or with v's column set
to -1.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class CertificateError(RuntimeError):
    """A property the theory guarantees failed while certifying a result,
    from an inexact fraction-free division to a product of cocycles that
    is not a cocycle.  Raised, never asserted, so it holds under
    python -O."""


class RationalMatrix:
    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int):
        self.rows = rows
        self.cols = cols
        self._rows: list[dict[int, Fraction]] = [dict() for _ in range(rows)]

    @classmethod
    def from_rows(cls, data) -> "RationalMatrix":
        data = [list(r) for r in data]
        m = cls(len(data), len(data[0]) if data else 0)
        for i, row in enumerate(data):
            for j, v in enumerate(row):
                if v:
                    m._rows[i][j] = Fraction(v)
        return m

    def add_at(self, r: int, c: int, v):
        if not v:
            return
        row = self._rows[r]
        new = row.get(c, 0) + v
        if new:
            row[c] = new
        else:
            del row[c]

    def get(self, r: int, c: int) -> Fraction:
        return Fraction(self._rows[r].get(c, 0))

    def nnz(self) -> int:
        return sum(len(r) for r in self._rows)

    def items(self):
        """Yield (row, col, value) for every nonzero entry."""
        for i, row in enumerate(self._rows):
            for j, v in row.items():
                yield i, j, v

    def is_zero(self) -> bool:
        return all(not r for r in self._rows)

    def __eq__(self, other):
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        for a, b in zip(self._rows, other._rows):
            if {c: Fraction(v) for c, v in a.items()} != {
                c: Fraction(v) for c, v in b.items()
            }:
                return False
        return True

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        assert self.cols == other.rows, "dimension mismatch"
        out = RationalMatrix(self.rows, other.cols)
        for i, row in enumerate(self._rows):
            acc: dict[int, Fraction] = {}
            for j, v in row.items():
                for k, w in other._rows[j].items():
                    s = acc.get(k, 0) + v * w
                    if s:
                        acc[k] = s
                    else:
                        del acc[k]
            out._rows[i] = acc
        return out

    def rank(self) -> int:
        pivots, _ = _bareiss(_integer_rows(self._rows), self.cols)
        return len(pivots)

    def nullspace(self) -> list[tuple[Fraction, ...]]:
        """Echelon-canonical kernel basis: one vector per free column, in
        column order, with a 1 in its free coordinate."""
        pivots, rows = _bareiss(_integer_rows(self._rows), self.cols)
        pivot_cols = {c for _, c in pivots}
        return [tuple(_solve(rows, pivots, {f: Fraction(1)}, self.cols))
                for f in range(self.cols) if f not in pivot_cols]

    def pivot_columns(self) -> list[int]:
        """Pivot columns of the row echelon form, in column order."""
        pivots, _ = _bareiss(_integer_rows(self._rows), self.cols)
        return [c for _, c in pivots]

    def in_column_space(self, vec):
        """Decide whether vec lies in the column span.

        Returns ``(True, x)`` with the preimage solving M x = vec that is
        zero off the pivot columns, or ``(False, y)`` with a certifying
        functional: y M = 0, y.vec != 0.

        One elimination of [M | vec | I], pivoting in M's columns only,
        decides both: y is read off the identity columns of a row left
        without a pivot but with an entry under vec, and x comes from the
        shared back substitution seeded with vec's column.
        """
        if len(vec) != self.rows:
            raise ValueError(f"expected a vector of length {self.rows}")
        n = self.cols
        rows = []
        for i, row in enumerate(self._rows):
            r = dict(row)
            if vec[i]:
                r[n] = vec[i]
            r[n + 1 + i] = 1
            rows.append(r)
        pivots, rows = _bareiss(_integer_rows(rows), n)
        used = {r for r, _ in pivots}
        for i, row in enumerate(rows):
            if i not in used and row.get(n):
                # zero combination of M's rows with a nonzero right side
                if min(row) < n:
                    raise CertificateError(
                        "a left-null certificate must clear every column")
                return False, [Fraction(row.get(n + 1 + k, 0))
                               for k in range(self.rows)]
        return True, _solve(rows, pivots, {n: Fraction(-1)}, n)


def _integer_rows(rows) -> list[dict[int, int]]:
    """Row-scaled integer copy.  Row scaling preserves rank, nullspace and
    the solutions of [M | v]; identity columns scale along, so the
    combinations read off them are of the unscaled rows."""
    out = []
    for row in rows:
        fracs = {c: Fraction(v) for c, v in row.items()}
        scale = lcm(*(f.denominator for f in fracs.values())) if fracs else 1
        out.append({c: int(f * scale) for c, f in fracs.items()})
    return out


def _solve(rows, pivots, seed: dict[int, Fraction], ncols: int) -> list[Fraction]:
    """Back substitution through the eliminated rows: start from the seed
    coordinates (a free column set to 1, or the right side set to -1) and
    solve each pivot row for its pivot so the row is zero on x.  Entries
    of x in columns outside the seed and the pivots stay zero."""
    x = dict(seed)
    for r, c in reversed(pivots):
        row = rows[r]
        s = Fraction(0)
        for cc, v in row.items():
            if cc != c and cc in x:
                s += v * x[cc]
        x[c] = -s / row[c]
    return [x.get(c, Fraction(0)) for c in range(ncols)]


def _bareiss(rows: list[dict[int, int]], ncols: int):
    """Fraction-free row elimination in place.

    Pivot columns are scanned left to right through the first ``ncols``
    columns; within a column the pivot row is the one with the smallest
    |entry| (ties broken by sparsity), which keeps the exact-division
    intermediates small.  Every active row is updated with the Bareiss
    rule each step, in every column it or the pivot row has, so all
    intermediate values are minors of the (permuted, scaled) input and
    the divisions are exact.  Columns past ``ncols`` ride along.

    Returns (pivots, rows): pivots as (row index, column) in elimination
    order.
    """
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
                    if rem:
                        raise CertificateError(
                            "fraction-free division must be exact")
                    new[c] = q
            new.pop(j, None)
            rows[r] = new
        prev = piv
    return pivots, rows
