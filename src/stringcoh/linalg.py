"""Exact rational matrices: rank, kernel, pivot columns, and certified
column-space membership.

The elimination core is fraction-free (Bareiss): rows are cleared to
integers once (a row of ints is copied as is), then every update is
``row <- (pivot * row - row[j] * pivot_row) / previous_pivot`` with an
exact integer division.  Only a row with an entry in the pivot column j
meets the pivot row; one without is scaled by pivot / previous_pivot,
and left as it is when the two are equal.  On the benchmark's inputs
every pivot is +-1 times the previous one, so such a row is left as it
is or negated.  Arbitrary-precision integers make this safe at
any size; pivots are chosen small and sparse to contain growth.  The
matrices produced upstream have entries in {-1, 0, 1}, are very sparse
and fall into many small blocks, so rows are stored as column->value
dicts and the elimination runs once per connected block of the
row-column graph, with that block's own previous pivot; a one-row block
is its own pivot.  Every pivot candidate of a column lies in its block,
and the rows a global sweep would update there all carry one common
scale, so the pivots are those of one global elimination.

Rank, pivot columns and kernel read one elimination, which
`RationalMatrix.echelon` keeps for callers that ask a matrix more than
one question.  Column-space membership eliminates [M | v | I] with pivots
in M's columns: a row left without a pivot but with an entry under v is a
left-null certificate, read off the identity columns.  Kernel vectors and
preimages come from one back substitution, seeded with the int 1 at a
free column or -1 at v's column; a kernel vector is solved over the
pivots of its own block.  The substitution stays in integers: each pivot
coordinate is an exact ``divmod`` quotient, and a Fraction only where the
pivot leaves a remainder, so every integral coordinate is an int.
Vectors in and out are sparse dicts from index to nonzero value: v and
certificates by row, kernel vectors and preimages by column.
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

    def add_at(self, r: int, c: int, v):
        if not v:
            return
        row = self._rows[r]
        new = row.get(c, 0) + v
        if new:
            row[c] = new
        else:
            del row[c]

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
        # no entry is stored as zero, and an int equals its Fraction
        if not isinstance(other, RationalMatrix):
            return NotImplemented
        return ((self.rows, self.cols, self._rows)
                == (other.rows, other.cols, other._rows))

    def __matmul__(self, other: "RationalMatrix") -> "RationalMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
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

    def echelon(self) -> "Echelon":
        """One elimination of the matrix, for its rank, pivot columns and
        kernel."""
        pivots, rows = _bareiss(_integer_rows(self._rows), self.cols)
        return Echelon(self.cols, pivots, rows)

    def pivot_columns(self) -> list[int]:
        return self.echelon().pivot_columns()

    def in_column_space(self, vec: dict):
        """Decide whether vec, given as {row: value}, lies in the column
        span; a key outside 0..rows-1 raises ValueError.

        Returns ``(True, x)`` with the preimage {column: value} solving
        M x = vec that is zero off the pivot columns, ints where integral,
        or ``(False, y)`` with a certifying functional {row: value}:
        y M = 0, y.vec != 0.

        One elimination of [M | vec | I], pivoting in M's columns only,
        decides both: y is read off the identity columns of a row left
        without a pivot but with an entry under vec, and x comes from the
        shared back substitution seeded with vec's column.
        """
        if any(not 0 <= i < self.rows for i in vec):
            raise ValueError(f"row keys must lie in range({self.rows})")
        n = self.cols
        rows = []
        for i, row in enumerate(self._rows):
            r = dict(row)
            if vec.get(i):
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
                return False, {c - n - 1: Fraction(v)
                               for c, v in row.items() if c > n}
        x = _solve(rows, pivots, {n: -1})
        del x[n]
        return True, x


class Echelon:
    """One elimination of a matrix with ``cols`` columns: its pivots as
    (row index, column) sorted by column, and its eliminated integer
    rows."""

    __slots__ = ("cols", "pivots", "rows")

    def __init__(self, cols: int, pivots: list[tuple[int, int]],
                 rows: list[dict[int, int]]):
        self.cols = cols
        self.pivots = pivots
        self.rows = rows

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def pivot_columns(self) -> list[int]:
        """Pivot columns of the row echelon form, in column order."""
        return [c for _, c in self.pivots]

    def nullspace(self) -> list[dict[int, int | Fraction]]:
        """Echelon-canonical kernel basis: one vector {column: value} per
        free column, in column order, with a 1 in its free coordinate and
        ints wherever a value is integral.
        Each is solved over the pivots of its own block of the eliminated
        rows; a free column in no block is a unit vector."""
        n = self.cols
        pivot_of = {r: c for r, c in self.pivots}
        block_pivots: dict[int, list[tuple[int, int]]] = {}
        for block in _blocks(self.rows, n):
            # only pivot rows keep entries in the first n columns
            pivots = sorted(((r, pivot_of[r]) for r in block), key=_column)
            for r in block:
                for c in self.rows[r]:
                    if c < n:
                        block_pivots[c] = pivots
        pivot_cols = set(pivot_of.values())
        return [_solve(self.rows, block_pivots.get(f, ()), {f: 1})
                for f in range(n) if f not in pivot_cols]


def _integer_rows(rows) -> list[dict[int, int]]:
    """Row-scaled integer copy; a row of ints is copied as is.  Row
    scaling preserves rank, nullspace and the solutions of [M | v];
    identity columns scale along, so the combinations read off them are
    of the unscaled rows."""
    out = []
    for row in rows:
        for v in row.values():
            if type(v) is not int:
                break
        else:
            out.append(row.copy())
            continue
        fracs = {c: Fraction(v) for c, v in row.items()}
        scale = lcm(*(f.denominator for f in fracs.values())) if fracs else 1
        out.append({c: int(f * scale) for c, f in fracs.items()})
    return out


def _solve(rows, pivots, seed: dict[int, int]) -> dict[int, int | Fraction]:
    """Back substitution through the eliminated rows: start from the seed
    coordinates (a free column set to 1, or the right side set to -1) and
    solve each pivot row for its pivot so the row is zero on x.  Each
    pivot coordinate is an exact integer quotient where the pivot divides,
    and a Fraction only where it leaves a remainder.  Returns x's nonzero
    coordinates; columns outside the seed and the pivots stay zero."""
    x = dict(seed)
    for r, c in reversed(pivots):
        row = rows[r]
        s = 0
        for cc, v in row.items():
            if cc != c and cc in x:
                s += v * x[cc]
        if s:
            p = row[c]
            q, rem = divmod(-s, p)
            x[c] = Fraction(-s, p) if rem else q
    return x


def _column(pivot: tuple[int, int]) -> int:
    return pivot[1]


def _blocks(rows, ncols: int) -> list[list[int]]:
    """The connected blocks of the row-column graph over the first
    ``ncols`` columns: ascending lists of row indices, in the order of
    their first rows.  A row with no entry in those columns is in no
    block.

    One union-find pass over the entries, each root its set's first row:
    a row joins the set of each column it meets, found from a row the
    column remembers by path halving.  Every parent lies before its
    child, so one ascending pass then points each member at its root."""
    root = list(range(len(rows)))
    owner: dict[int, int] = {}
    members = []
    for i, row in enumerate(rows):
        a = i  # the root of row i's set so far
        seen = len(owner)
        for c in row:
            if c >= ncols:
                continue
            b = owner.setdefault(c, a)
            while root[b] != b:
                root[b] = b = root[root[b]]
            if b < a:
                root[a] = a = b
            elif a < b:
                root[b] = a
        # an entry in the first ncols columns either met an earlier row
        # or was the first in its column
        if a != i or len(owner) != seen:
            members.append(i)
    blocks: dict[int, list[int]] = {}
    for i in members:
        root[i] = r = root[root[i]]
        blocks.setdefault(r, []).append(i)
    return list(blocks.values())


def _bareiss(rows: list[dict[int, int]], ncols: int):
    """Fraction-free row elimination in place, one connected block of the
    first ``ncols`` columns at a time (see ``_blocks``); columns past
    ``ncols`` ride along and join no block.  A one-row block is its own
    pivot, at its first column.

    Within a block, pivot columns are scanned left to right; within a
    column the pivot row is the one with the smallest |entry| (ties
    broken by sparsity, then by row order), which keeps the exact-division
    intermediates small.  Each step applies the Bareiss rule to the
    block's active rows: a row with an entry in the pivot column is
    combined with the pivot row, in every column either has; a row
    without one is only scaled by piv / prev, and is left as it is when
    piv == prev.  So all intermediate values are minors of the (permuted,
    scaled) block, the divisions are exact, and the pivots and rows are
    those of a sweep that rewrites every active row each step.

    Returns (pivots, rows): pivots as (row index, column), sorted by
    column.
    """
    pivots: list[tuple[int, int]] = []
    for block in _blocks(rows, ncols):
        if len(block) == 1:
            # a row in a block has an entry in the first ncols columns,
            # so its smallest column is one of them
            r = block[0]
            pivots.append((r, min(rows[r])))
            continue
        active = block
        prev = 1
        for j in sorted({c for r in block for c in rows[r] if c < ncols}):
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
                if not a and piv == prev:
                    continue
                new: dict[int, int] = {}
                for c, v in row.items():
                    v = v * piv - a * prow.get(c, 0)
                    if v:
                        q, rem = divmod(v, prev)
                        if rem:
                            raise CertificateError(
                                "fraction-free division must be exact")
                        new[c] = q
                if a:
                    # the columns the pivot row fills in
                    for c, v in prow.items():
                        if c not in row:
                            q, rem = divmod(-a * v, prev)
                            if rem:
                                raise CertificateError(
                                    "fraction-free division must be exact")
                            new[c] = q
                rows[r] = new
            prev = piv
    pivots.sort(key=_column)
    return pivots, rows
