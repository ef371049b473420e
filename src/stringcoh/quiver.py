"""Finite quivers and their paths.

A quiver is a finite directed multigraph.  Vertices and arrows are
identified by dense integer ids assigned in declaration order; the
user-facing labels are kept only for input and output.  Paths are written
left to right: in a path ``a1 a2`` the target of ``a1`` is the source of
``a2``, and every module downstream inherits this convention.
"""

from __future__ import annotations

from dataclasses import dataclass


class CompositionError(ValueError):
    """Raised when two paths with mismatched endpoints are composed."""


class CyclicQuiverError(ValueError):
    """Raised when an operation needs an acyclic quiver but got a cycle."""


@dataclass(frozen=True)
class Path:
    """A directed path, stored as its vertex ids and arrow ids.

    ``vertices`` has one more entry than ``arrows``; a trivial path at x
    is ``Path((x,), ())``.  Storing the vertex sequence keeps endpoint
    queries and subpath extraction local to the path.
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


class Quiver:
    """A finite quiver with labelled vertices and arrows.

    Arrows may be parallel; loops are allowed at this level and rejected
    by the acyclicity check.
    """

    def __init__(self, vertex_labels, arrows):
        """arrows: sequence of (label, source id, target id)."""
        self.vertex_labels = tuple(vertex_labels)
        self.arrow_labels = tuple(a[0] for a in arrows)
        self.arrow_source = tuple(a[1] for a in arrows)
        self.arrow_target = tuple(a[2] for a in arrows)
        n = len(self.vertex_labels)
        assert len(set(self.vertex_labels)) == n, "duplicate vertex labels"
        assert len(set(self.arrow_labels)) == len(self.arrow_labels), (
            "duplicate arrow labels"
        )
        for s, t in zip(self.arrow_source, self.arrow_target):
            assert 0 <= s < n and 0 <= t < n, "arrow endpoint out of range"
        self._out = [[] for _ in range(n)]
        self._in = [[] for _ in range(n)]
        for a in range(len(self.arrow_labels)):
            self._out[self.arrow_source[a]].append(a)
            self._in[self.arrow_target[a]].append(a)

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    @property
    def num_arrows(self) -> int:
        return len(self.arrow_labels)

    def out_arrows(self, v: int) -> list[int]:
        return self._out[v]

    def in_arrows(self, v: int) -> list[int]:
        return self._in[v]

    def trivial_path(self, v: int) -> Path:
        return Path((v,), ())

    def arrow_path(self, a: int) -> Path:
        return Path((self.arrow_source[a], self.arrow_target[a]), (a,))

    def path(self, base: int, arrows) -> Path:
        """Build a path from a base vertex and composable arrow ids."""
        verts = [base]
        for a in arrows:
            if self.arrow_source[a] != verts[-1]:
                raise CompositionError(
                    f"arrow {self.arrow_labels[a]} does not start at vertex "
                    f"{self.vertex_labels[verts[-1]]}"
                )
            verts.append(self.arrow_target[a])
        return Path(tuple(verts), tuple(arrows))

    def is_acyclic(self) -> bool:
        """True iff there is no oriented cycle (loops count as cycles)."""
        try:
            self._topological_order()
        except CyclicQuiverError:
            return False
        return True

    def is_connected(self) -> bool:
        """Connectedness of the underlying undirected graph."""
        n = self.num_vertices
        if n == 0:
            return True
        adj = [set() for _ in range(n)]
        for s, t in zip(self.arrow_source, self.arrow_target):
            adj[s].add(t)
            adj[t].add(s)
        seen = {0}
        stack = [0]
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == n

    def is_tree(self) -> bool:
        """True iff the underlying undirected graph is a tree."""
        return self.is_connected() and self.num_arrows == self.num_vertices - 1

    def longest_path_length(self) -> int:
        """Length of the longest directed path (0 for arrowless quivers);
        CyclicQuiverError on a cyclic quiver."""
        order = self._topological_order()
        best = [0] * self.num_vertices
        for v in reversed(order):
            for a in self._out[v]:
                best[v] = max(best[v], 1 + best[self.arrow_target[a]])
        return max(best, default=0)

    def _topological_order(self) -> list[int]:
        indeg = [0] * self.num_vertices
        for t in self.arrow_target:
            indeg[t] += 1
        stack = sorted((v for v in range(self.num_vertices) if indeg[v] == 0),
                       reverse=True)
        order = []
        while stack:
            v = stack.pop()
            order.append(v)
            for a in self._out[v]:
                t = self.arrow_target[a]
                indeg[t] -= 1
                if indeg[t] == 0:
                    stack.append(t)
        if len(order) != self.num_vertices:
            raise CyclicQuiverError("topological order needs an acyclic quiver")
        return order

    def format_path(self, p: Path) -> str:
        if p.is_trivial:
            return f"e_{self.vertex_labels[p.source]}"
        return "*".join(self.arrow_labels[a] for a in p.arrows)
