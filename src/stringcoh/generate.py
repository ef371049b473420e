"""Seeded random triangular string presentations, for property testing.

The quiver is grown as a connected DAG with at most two arrows in and out
of every vertex.  Quadratic relations are then chosen per vertex: the
surviving length-2 compositions through a vertex must form a partial
matching between its incoming and outgoing arrows, which is exactly the
unique-continuation condition on both sides.  Optionally a few longer
relations are layered on top, subject to minimality.
"""

from __future__ import annotations

import random

from .presentation import Presentation, parse, validate
from .quiver import Quiver, Word


def generate_dsl(seed: int, max_vertices: int = 8, max_arrows: int = 10,
                 tree: bool = False, quadratic: bool = False) -> str:
    """A random valid presentation in DSL form, deterministic in the seed.
    ValueError when max_vertices < 2 or max_arrows < 1: the quiver is
    connected, with at least two vertices."""
    for name, value, low in (("max_vertices", max_vertices, 2),
                             ("max_arrows", max_arrows, 1)):
        if value < low:
            raise ValueError(f"{name} must be at least {low}, got {value}")
    rng = random.Random(seed)
    for _ in range(64):
        text = _try_generate(rng, max_vertices, max_arrows, tree, quadratic)
        if text is None:
            continue
        pres = parse(text)
        if validate(pres).passed:
            return text
    raise RuntimeError("could not generate a valid presentation")


def generate(seed: int, **kwargs) -> Presentation:
    return parse(generate_dsl(seed, **kwargs))


def _try_generate(rng, max_vertices, max_arrows, tree, quadratic):
    # a spanning tree of nv vertices has nv - 1 arrows
    nv = rng.randint(2, min(max_vertices, max_arrows + 1))
    out_deg = [0] * nv
    in_deg = [0] * nv
    edges: list[tuple[int, int]] = []

    def can_add(u, v):
        return out_deg[u] < 2 and in_deg[v] < 2

    def add(u, v):
        edges.append((u, v))
        out_deg[u] += 1
        in_deg[v] += 1

    # spanning tree; arbitrary orientations stay acyclic
    for v in range(1, nv):
        options = [(u, v) for u in range(v) if can_add(u, v)]
        options += [(v, u) for u in range(v) if can_add(v, u)]
        if not options:
            return None
        add(*rng.choice(options))

    if not tree:
        budget = min(max_arrows, 2 * nv) - len(edges)
        extra = rng.randint(0, max(0, budget))
        for _ in range(8 * extra):
            if extra <= 0:
                break
            u = rng.randrange(nv)
            v = rng.randrange(nv)
            if u == v or not can_add(u, v) or _reaches(edges, v, u):
                continue
            add(u, v)
            extra -= 1

    arrow_names = [f"a{i}" for i in range(len(edges))]
    quiver = Quiver(
        [str(v) for v in range(nv)],
        [(arrow_names[i], u, v) for i, (u, v) in enumerate(edges)],
    )

    # surviving compositions through each vertex form a partial matching
    relations: list[Word] = []
    for v in range(nv):
        ins = quiver.in_arrows(v)
        outs = quiver.out_arrows(v)
        if not ins or not outs:
            continue
        alive = rng.choice(_partial_matchings(ins, outs))
        for a in ins:
            for b in outs:
                if (a, b) not in alive:
                    relations.append((a, b))

    if not quadratic:
        dead = set(relations)
        candidates = _long_candidates(quiver, dead)
        rng.shuffle(candidates)
        for cand in candidates[: rng.randint(0, 3)]:
            if not any(_contains(cand, c) or _contains(c, cand)
                       for c in relations if len(c) >= 3):
                relations.append(cand)

    lines = ["vertex " + " ".join(str(v) for v in range(nv))]
    for i, (u, v) in enumerate(edges):
        lines.append(f"arrow {arrow_names[i]} {u} {v}")
    for r in sorted(relations, key=lambda w: (len(w), w)):
        lines.append("relation " + " ".join(arrow_names[a] for a in r))
    return "\n".join(lines) + "\n"


def _reaches(edges, src, dst) -> bool:
    if src == dst:
        return True
    seen = {src}
    stack = [src]
    while stack:
        u = stack.pop()
        for a, b in edges:
            if a == u and b not in seen:
                if b == dst:
                    return True
                seen.add(b)
                stack.append(b)
    return False


def _partial_matchings(rows, cols):
    """All partial matchings of rows x cols, as sets of pairs."""
    out = []

    def rec(i, used, acc):
        if i == len(rows):
            out.append(frozenset(acc))
            return
        rec(i + 1, used, acc)
        for c in cols:
            if c not in used:
                rec(i + 1, used | {c}, acc + [(rows[i], c)])

    rec(0, frozenset(), [])
    return out


def _long_candidates(quiver, dead_quadratics) -> list[Word]:
    """Arrow words of the paths of length >= 3 all of whose length-2
    factors survive: these are exactly the candidates a longer minimal
    relation may use."""
    out = []
    frontier = [(a,) for a in range(quiver.num_arrows)]
    while frontier:
        nxt = []
        for p in frontier:
            for b in quiver.out_arrows(quiver.arrow_target[p[-1]]):
                if (p[-1], b) in dead_quadratics:
                    continue
                q = p + (b,)
                nxt.append(q)
                if len(q) >= 3:
                    out.append(q)
        frontier = nxt
    return out


def _contains(inner: Word, outer: Word) -> bool:
    k = len(inner)
    return any(outer[i : i + k] == inner for i in range(len(outer) - k + 1))
