"""Monomial presentations: the input DSL, validation, and the path basis.

A presentation is a quiver together with a minimal set of paths of length
at least two generating the relation ideal.  The file format is line
oriented; '#' starts a comment and tokens are whitespace separated::

    vertex <name>+            declares vertices (repeatable)
    arrow <name> <src> <tgt>  declares one arrow
    relation <arrow-name>{2,} one monomial relation, arrows left to right

Names match [A-Za-z0-9_]+ and are case sensitive.  Declaration order
defines the canonical integer ids used everywhere downstream.
validate reports one CheckResult, the library's one record of a named
pass/fail verdict, per hypothesis.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .quiver import Quiver, Word

_NAME = re.compile(r"[A-Za-z0-9_]+\Z")


class ParseError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Presentation:
    """A quiver and its relations, as arrow words sorted by length and
    then word."""

    quiver: Quiver
    relations: tuple[Word, ...]

    @cached_property
    def _relation_words(self) -> tuple[dict[Word, list[int]], list[int]]:
        """Arrow word of each relation -> its positions in relations, and
        the distinct relation lengths."""
        words: dict[Word, list[int]] = {}
        for j, r in enumerate(self.relations):
            words.setdefault(r, []).append(j)
        return words, sorted({len(r) for r in self.relations})

    def relation_factors(self, w: Word):
        """Positions in relations of the relations occurring as factors of
        the arrow word w, once per occurrence: one lookup per start and
        relation length."""
        words, lengths = self._relation_words
        for k in lengths:
            for i in range(len(w) - k + 1):
                yield from words.get(w[i : i + k], ())

    def in_ideal(self, w: Word) -> bool:
        """Monomial ideal membership of the path with arrow word w: some
        relation occurs as a factor of w."""
        return next(self.relation_factors(w), None) is not None


def parse(text: str) -> Presentation:
    """Parse the presentation DSL; raises ParseError with a line number."""
    vertex_ids: dict[str, int] = {}
    arrow_ids: dict[str, int] = {}
    arrows: list[tuple[str, int, int]] = []
    relation_lines: list[tuple[list[str], int]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        kind, args = tokens[0], tokens[1:]
        if kind == "vertex":
            if not args:
                raise ParseError("vertex line needs at least one name", lineno)
            for name in args:
                if not _NAME.match(name):
                    raise ParseError(f"bad vertex name {name!r}", lineno)
                if name in vertex_ids:
                    raise ParseError(f"duplicate vertex {name!r}", lineno)
                vertex_ids[name] = len(vertex_ids)
        elif kind == "arrow":
            if len(args) != 3:
                raise ParseError("arrow line needs: arrow <name> <src> <tgt>", lineno)
            name, src, tgt = args
            if not _NAME.match(name):
                raise ParseError(f"bad arrow name {name!r}", lineno)
            if name in arrow_ids:
                raise ParseError(f"duplicate arrow {name!r}", lineno)
            for v in (src, tgt):
                if v not in vertex_ids:
                    raise ParseError(f"unknown vertex {v!r}", lineno)
            arrow_ids[name] = len(arrows)
            arrows.append((name, vertex_ids[src], vertex_ids[tgt]))
        elif kind == "relation":
            if len(args) < 2:
                raise ParseError("a relation needs at least two arrows", lineno)
            relation_lines.append((args, lineno))
        else:
            raise ParseError(f"unknown directive {kind!r}", lineno)

    quiver = Quiver(tuple(vertex_ids), arrows)
    relations = []
    seen = set()
    for names, lineno in relation_lines:
        for name in names:
            if name not in arrow_ids:
                raise ParseError(f"unknown arrow {name!r} in relation", lineno)
        rel = tuple(arrow_ids[name] for name in names)
        for a, b in zip(rel, rel[1:]):
            if quiver.arrow_source[b] != quiver.arrow_target[a]:
                raise ParseError(
                    f"arrow {quiver.arrow_labels[b]} does not start at vertex "
                    f"{quiver.vertex_labels[quiver.arrow_target[a]]}", lineno)
        if rel in seen:
            raise ParseError("duplicate relation", lineno)
        seen.add(rel)
        relations.append(rel)
    relations.sort(key=lambda w: (len(w), w))
    return Presentation(quiver, tuple(relations))


def parse_file(path) -> Presentation:
    with open(path, encoding="utf-8-sig") as fh:  # drops a BOM
        return parse(fh.read())


class CheckResult(NamedTuple):
    """A named pass/fail verdict with a witness description: a validation
    entry, an entry of CochainComplex.ker_im_audit, or an Auditor check."""

    name: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    checks: list[CheckResult] = field(default_factory=list)

    def add(self, name: str, passed: bool, detail: str = ""):
        self.checks.append(CheckResult(name, passed, detail))

    @property
    def passed(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def failures(self) -> list[tuple[str, str]]:
        return [(name, detail) for name, ok, detail in self.checks if not ok]


def validate(pres: Presentation) -> ValidationReport:
    """Check the triangular-string hypotheses, one report entry per check.

    Failures are report entries, not exceptions.  The checks: acyclicity;
    connectedness of the underlying graph, which needs a vertex;
    relation lengths >= 2;
    minimality of the generating set (no relation divides another); at
    most two arrows in and out of every vertex; and for every arrow a
    unique surviving continuation on each side modulo the ideal.
    """
    q = pres.quiver
    report = ValidationReport()

    acyclic = q.is_acyclic()
    report.add("acyclic", acyclic, "" if acyclic else "oriented cycle found")

    if q.num_vertices:
        connected = q.is_connected()
        report.add("connected", connected,
                   "" if connected else "underlying graph is disconnected")
    else:
        report.add("connected", False, "no vertices")

    short = [r for r in pres.relations if len(r) < 2]
    report.add(
        "relation-lengths",
        not short,
        "" if not short else "relations of length < 2: "
        + ", ".join(q.format_word(r) for r in short),
    )

    rels = pres.relations
    bad_pairs = non_minimal_pairs(pres)
    report.add(
        "minimal-generators",
        not bad_pairs,
        "" if not bad_pairs else "; ".join(
            f"{q.format_word(rels[i])} divides {q.format_word(rels[j])}"
            for i, j in bad_pairs
        ),
    )

    s1_bad = [
        v for v in range(q.num_vertices)
        if len(q.out_arrows(v)) > 2 or len(q.in_arrows(v)) > 2
    ]
    report.add(
        "S1",
        not s1_bad,
        "" if not s1_bad else "more than two arrows in or out at vertex "
        + ", ".join(q.vertex_labels[v] for v in s1_bad),
    )

    s2_bad = []
    for a in range(q.num_arrows):
        succ = [b for b in q.out_arrows(q.arrow_target[a])
                if not pres.in_ideal((a, b))]
        pred = [b for b in q.in_arrows(q.arrow_source[a])
                if not pres.in_ideal((b, a))]
        if len(succ) > 1:
            s2_bad.append(f"{q.arrow_labels[a]} has surviving continuations "
                          + ", ".join(q.arrow_labels[b] for b in succ))
        if len(pred) > 1:
            s2_bad.append(f"{q.arrow_labels[a]} has surviving predecessors "
                          + ", ".join(q.arrow_labels[b] for b in pred))
    report.add("S2", not s2_bad, "; ".join(s2_bad))

    return report


def non_minimal_pairs(pres: Presentation) -> list[tuple[int, int]]:
    """Every (i, j), i != j, where relation i is a factor of relation j,
    as positions in pres.relations, ordered by i and then j."""
    return sorted({(i, j) for j, r in enumerate(pres.relations)
                   for i in pres.relation_factors(r) if i != j})


_UNSET = object()


class PathBasis:
    """The ideal-free paths, in canonical order: the monomial basis of A.

    A path lies in the basis iff no relation divides it, so membership in
    the relation ideal is exactly absence from this set.  A basis path is
    named by its id: the trivial path at vertex v has id v, and the
    nontrivial ones follow by length and then arrow word.  Per id the
    basis keeps the arrow word (``words``, empty for a vertex) and the
    end vertices (``sources``, ``targets``); ``word_index`` maps the word
    of each nontrivial basis path back to its id.  Products are taken on
    ids (``mult``), through one table that fills on first use: building
    the basis computes no product.
    """

    def __init__(self, pres: Presentation):
        q = pres.quiver
        ending_with: dict[int, list[Word]] = {}
        for r in pres.relations:
            ending_with.setdefault(r[-1], []).append(r)
        words: list[Word] = []
        sources: list[int] = []
        targets: list[int] = []
        frontier = [((), v, v) for v in range(q.num_vertices)]
        while frontier:
            nxt = []
            for word, s, t in frontier:
                words.append(word)
                sources.append(s)
                targets.append(t)
                for a in q.out_arrows(t):
                    ext = word + (a,)
                    # word is already ideal-free, so only a relation ending
                    # at the new last arrow can kill the extension.
                    if not any(ext[-len(r):] == r
                               for r in ending_with.get(a, ())):
                        nxt.append((ext, s, q.arrow_target[a]))
            nxt.sort()  # one length, and a nonempty word fixes its source
            frontier = nxt
        self.pres = pres
        self.words = tuple(words)
        self.sources = tuple(sources)
        self.targets = tuple(targets)
        self.word_index = {w: i for i, w in enumerate(words) if w}
        self._products: dict[tuple[int, int], int | None] = {}
        self._by_endpoints: dict[tuple[int, int], list[int]] = {}
        self._ending_at: dict[int, list[int]] = {}
        self._starting_at: dict[int, list[int]] = {}
        for i, (s, t) in enumerate(zip(sources, targets)):
            self._by_endpoints.setdefault((s, t), []).append(i)
            self._ending_at.setdefault(t, []).append(i)
            self._starting_at.setdefault(s, []).append(i)

    @property
    def dim(self) -> int:
        return len(self.words)

    def between(self, s: int, t: int) -> list[int]:
        """Ids of the basis paths from s to t, in basis order."""
        return self._by_endpoints.get((s, t), [])

    def ending_at(self, v: int) -> list[int]:
        return self._ending_at.get(v, [])

    def starting_at(self, v: int) -> list[int]:
        return self._starting_at.get(v, [])

    def mult(self, i: int, j: int) -> int | None:
        """Id of the product of the basis paths with ids i and j in A; None
        when it is zero: the paths do not compose, or their concatenation
        falls in the ideal.  Each product is computed once, then read from
        the table."""
        key = (i, j)
        prod = self._products.get(key, _UNSET)
        if prod is _UNSET:
            left, right = self.words[i], self.words[j]
            if self.targets[i] != self.sources[j]:
                prod = None
            elif not right:
                prod = i
            elif not left:
                prod = j
            else:
                prod = self.word_index.get(left + right)
            self._products[key] = prod
        return prod

    def mult3(self, i: int, j: int, k: int) -> int | None:
        ij = self.mult(i, j)
        return None if ij is None else self.mult(ij, k)


def basis_P(pres: Presentation) -> PathBasis:
    return PathBasis(pres)
