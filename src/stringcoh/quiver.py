"""Finite quivers and the labels of their paths.

A quiver is a finite directed multigraph.  Vertices and arrows are
identified by dense integer ids assigned in declaration order; the
user-facing labels are kept only for input and output.  A path is named
by its arrow word, the tuple of its arrow ids, plus its vertex when it is
trivial.  Paths are written left to right: in a path ``a1 a2`` the target
of ``a1`` is the source of ``a2``, and every module downstream inherits
this convention.
"""

from __future__ import annotations

Word = tuple[int, ...]


class CyclicQuiverError(ValueError):
    """Raised when an operation needs an acyclic quiver but got a cycle."""


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
        if len(set(self.vertex_labels)) != n:
            raise ValueError("duplicate vertex labels")
        if len(set(self.arrow_labels)) != len(self.arrow_labels):
            raise ValueError("duplicate arrow labels")
        for s, t in zip(self.arrow_source, self.arrow_target):
            if not (0 <= s < n and 0 <= t < n):
                raise ValueError("arrow endpoint out of range")
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

    def format_word(self, word: Word, vertex: int | None = None) -> str:
        """The arrow labels of word joined by '*'; for the empty word,
        e_<label> of the vertex, the trivial path there, or e without a
        vertex."""
        if not word:
            return "e" if vertex is None else f"e_{self.vertex_labels[vertex]}"
        return "*".join(self.arrow_labels[a] for a in word)
