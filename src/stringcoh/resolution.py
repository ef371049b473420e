"""The minimal bimodule resolution of a monomial algebra (Bardzell).

Degree n of the resolution is A (x) kAP_n (x) A over the vertex
subalgebra, where AP_0 is the trivial paths, AP_1 the arrows, and AP_n
for n >= 2 the supports of chains of n-1 relations overlapping greedily
along a directed path.

AP_n is built from AP_{n-1} by Bardzell's overlap recursion on words of
arrow ids, starting from AP_2 = the relations.  A chain (p_1, ...,
p_{n-1}) with support S extends by each relation r such that S[s:] is a
proper prefix of r for a start s in the greedy window, (start p_1,
end p_1) at the first step and [end p_{n-2}, end p_{n-1}) after it,
unless a relation occurs inside S[:s] + r at a smaller start of that
window: on every path through the extension the greedy rule takes that
one instead.  A window lies inside the last relation, so each element is
extended with at most one prefix-index lookup per arrow of that relation.
The cost is linear in the total length of the supports and chains
produced, with a factor bounded by the longest relation; no path of the
quiver is walked.

The dual, right-greedy construction is the same recursion run on the
reversed relation words: reversal maps its window (start q_j,
start q_{j-1}] onto [end p_{j-1}, end p_j) and its maximal-end pick onto
the minimal-start one.  Each support takes its chain from the forward run
and its dual chain from the mirrored run (Resolution.op_ap_sets).  A
support found by only one run, a support reached with two different
chains, and a generating set in which one relation contains another
raise ApConstructionError; a disagreement of the runs lists every
support that one run found alone.

An element of A (x) kAP_n (x) A, such as a value of the differential,
of a comparison lift or of apply_map, is a sparse dict from the id
triple (left, position of psi in AP_n, right), with left and right
basis path ids (PathBasis), to a nonzero int or Fraction.  A cofactor in
the ideal makes a term zero, and such a term is never stored.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import wraps
from itertools import zip_longest

from .linalg import CertificateError, RationalMatrix
from .presentation import PathBasis, Presentation, non_minimal_pairs
from .quiver import Word


_MISSING = object()


def memo(method):
    """Cache a method's results per instance, keyed by its positional
    arguments.  The table lives in the instance's own __dict__, so it is
    freed with the tower, and it is never invalidated: the tower does not
    change after it is built.  It sits on the class, where a caller can
    still wrap or patch the method; a function whose first argument is a
    tower caches on that tower the same way.

    A method of one argument is keyed by that argument through a wrapper
    of fixed signature: most cached calls are of that kind, and a hit
    there costs about half as much as through *args.  Lookups use get,
    not try/except: on small towers about one call in five misses, and a
    miss through a caught KeyError costs three times one through get."""
    slot = f"_memo_{method.__name__}"

    if method.__code__.co_argcount == 2:
        @wraps(method)
        def cached(self, arg):
            hits = self.__dict__.get(slot)
            if hits is None:
                hits = self.__dict__[slot] = {}
            hit = hits.get(arg, _MISSING)
            if hit is _MISSING:
                hit = hits[arg] = method(self, arg)
            return hit
    else:
        @wraps(method)
        def cached(self, *args):
            hits = self.__dict__.get(slot)
            if hits is None:
                hits = self.__dict__[slot] = {}
            hit = hits.get(args, _MISSING)
            if hit is _MISSING:
                hit = hits[args] = method(self, *args)
            return hit

    return cached


@dataclass(frozen=True, slots=True)
class ApElement:
    """A basis element of kAP_n: the arrow word of its support, the
    support's end vertices, and its two chains of relation words.

    ``chain`` lists the overlapping relations (p_1, ..., p_{n-1}) of the
    left-greedy construction; ``op_chain`` the (q^1, ..., q^{n-1}) of the
    dual one, indexed left to right along the support.  Degrees 0 and 1
    have empty chains.  ``pos`` is the element's position in AP_n, its id:
    elements of A (x) kAP_n (x) A and generator values name it by that.  In degree 0 it
    is the vertex of the support, whose word is empty, and in degree 1
    the arrow.
    """

    degree: int
    word: Word
    source: int
    target: int
    chain: tuple[Word, ...]
    op_chain: tuple[Word, ...]
    pos: int

    def __hash__(self):
        return hash((self.degree, self.pos))


class ApConstructionError(ValueError):
    """The AP construction met a configuration the theory rules out.

    ``support`` is the arrow word where it happened: a relation that contains
    another relation, a support with two chains, or the first support on
    which the two greedy runs disagree.  ``witnesses`` then names every
    support that one run found alone; it is empty for other errors.
    """

    def __init__(self, reason: str, support: Word, label: str,
                 witnesses: list[str] | None = None):
        super().__init__(f"{reason} (support {label})")
        self.support = support
        self.witnesses = witnesses or []


def _greedy_chains(relations: list[Word], cap: int) -> list[list[tuple[Word, Word]]]:
    """Left-greedy chains over relation words, one list per degree 2..cap.

    Each list holds (support, chain) pairs: the support is a word of arrow
    ids and the chain lists the indices into ``relations`` of p_1, ...,
    p_{n-1}, left to right.  A state also keeps the lower end of its next
    greedy window; the upper end is always the support's length, the end
    of p_{n-1}.  Step 1 admits starts strictly inside p_1, so the first
    lower end is 1; after that each extension's lower end is the length of
    the support it extends, the end of p_{n-2}.

    A relation r extends a support at start s of the window when
    support[s:] is a proper prefix of r.  The extension is kept unless a
    relation occurs inside support[:s] + r at a smaller start of the
    window, because the greedy rule takes that one on every path through
    the extension.  Minimality of the generating set is assumed: it makes
    every relation met at a window start reach past the support, so the
    prefix index finds them all.
    """
    extends: dict[Word, list[int]] = {}
    for j, r in enumerate(relations):
        for i in range(1, len(r)):
            extends.setdefault(r[:i], []).append(j)
    layers = []
    states = [(r, (j,), 1) for j, r in enumerate(relations)]
    for degree in range(2, cap + 1):
        if not states:
            break
        layers.append([(support, chain) for support, chain, _ in states])
        if degree == cap:
            break
        nxt = []
        for support, chain, lo in states:
            hi = len(support)
            candidates = [(s, relations[j], j) for s in range(lo, hi)
                          for j in extends.get(support[s:], ())]
            for s, r, j in candidates:
                ext = support[:s] + r
                if not any(t < s and ext[t : t + len(o)] == o
                           for t, o, _ in candidates):
                    nxt.append((ext, chain + (j,), hi))
        states = nxt
    return layers


class Resolution:
    """AP sets, differentials, exactness, and the realized complex."""

    def __init__(self, pres: Presentation, basis: PathBasis,
                 max_degree: int | None = None):
        self.pres = pres
        self.basis = basis
        self.quiver = pres.quiver
        cap = self.quiver.longest_path_length()
        if max_degree is not None:
            cap = min(cap, max_degree)
        self.cap = cap
        self.ap = self._build_ap()

    # -- construction ---------------------------------------------------

    @property
    def top(self) -> int:
        """Largest degree with a nonempty AP set."""
        return len(self.ap) - 1

    def degrees(self) -> range:
        return range(len(self.ap))

    def _build_ap(self) -> list[list[ApElement]]:
        """The AP layers, each support with its chain from the forward run
        and its dual chain from the mirrored run."""
        q = self.quiver
        base: list[list[ApElement]] = [
            [ApElement(0, (), v, v, (), (), v) for v in range(q.num_vertices)]
        ]
        if self.cap >= 1 and q.num_arrows:
            base.append([ApElement(1, (a,), s, t, (), (), a) for a, (s, t)
                         in enumerate(zip(q.arrow_source, q.arrow_target))])
        self._check_minimal()
        forward = self._chain_run(self.cap, mirrored=False)
        return base + self._join(forward, self.op_ap_sets())

    def _error(self, reason: str, support: Word,
               witnesses: list[str] | None = None) -> ApConstructionError:
        return ApConstructionError(reason, support,
                                   self.quiver.format_word(support), witnesses)

    def _check_minimal(self):
        """No relation may be a proper factor of another.  The greedy
        recursion relies on it: along a path a minimal generating set is
        totally ordered, two relations sharing a source or a target would
        divide one another.  The error names the first such multiple in
        relation order."""
        rels = self.pres.relations
        bad = [j for i, j in non_minimal_pairs(self.pres)
               if len(rels[i]) < len(rels[j])]
        if bad:
            raise self._error("generating set is not minimal on a path",
                              rels[min(bad)])

    def _chain_run(self, cap: int, mirrored: bool) -> list[dict[Word, tuple[Word, ...]]]:
        """One greedy run: per degree from 2, support word -> chain.

        The mirrored run feeds the reversed relation words to the same
        recursion.  Reversal turns the dual windows into the forward ones
        and the maximal-end pick into the minimal-start one, so read back
        right to left its chains are the dual chains (q^1, ..., q^{n-1}).
        """
        rels = self.pres.relations
        step = -1 if mirrored else 1
        out = []
        for states in _greedy_chains([r[::step] for r in rels], cap):
            layer: dict[Word, tuple[Word, ...]] = {}
            for word, chain in states:
                support = word[::step]
                found = tuple(map(rels.__getitem__, chain[::step]))
                if layer.setdefault(support, found) != found:
                    raise self._error("one support, two different chains",
                                      support)
            out.append(layer)
        return out

    def _join(self, forward, mirror) -> list[list[ApElement]]:
        """AP layers from degree 2, in canonical order, with the chain of
        each support from the forward run and the dual chain from the
        mirrored run.  The runs must find the same supports in every
        degree; the error lists every support found by one run only, in
        degree and then canonical order, and names the first."""
        def key(w):
            return (len(w), w)

        lone = [(n, w, w in fwd)
                for n, (fwd, mir) in enumerate(
                    zip_longest(forward, mirror, fillvalue={}), 2)
                for w in sorted(fwd.keys() ^ mir.keys(), key=key)]
        if lone:
            fmt = self.quiver.format_word
            _, support, first = lone[0]
            reason = ("forward support with no mirrored chain" if first
                      else "mirrored support with no forward chain")
            raise self._error(reason, support, [
                f"degree {n} {fmt(p)}: {'forward' if f else 'mirrored'} "
                "run only" for n, p, f in lone])
        source, target = self.quiver.arrow_source, self.quiver.arrow_target
        return [[ApElement(i + 2, w, source[w[0]], target[w[-1]], fwd[w],
                           mirror[i][w], pos)
                 for pos, w in enumerate(sorted(fwd, key=key))]
                for i, fwd in enumerate(forward)]

    def op_ap_sets(self) -> list[dict[Word, tuple[Word, ...]]]:
        """The mirrored, right-greedy run up to the tower's cap: per degree
        from 2, support word -> dual chain (q^1, ..., q^{n-1}), left to
        right.  _build_ap joins it with the forward run."""
        return self._chain_run(self.cap, mirrored=True)

    # -- divisors, on arrow words ------------------------------------------

    def occurrences_in(self, n: int, word: Word, source: int) -> list[tuple]:
        """Every occurrence L * psi * R of an element psi of AP_n in the
        path with this arrow word and source, as (position of psi, start,
        end, id of L, id of R) with word[start:end] the support of psi,
        left to right and then in AP order; [] outside 0..top.  A cofactor
        in the ideal is None, and a trivial one the vertex at its offset.
        A trivial support occurs at every visit of the path to its vertex.
        Only the elements starting with the arrow at an offset (the
        vertex, in degree 0) are matched there, from _first_arrows(n)."""
        if not 0 <= n < len(self.ap):
            return []
        index = self._first_arrows(n)
        ids = self.basis.word_index
        k = len(word)
        target = self.quiver.arrow_target
        end = target[word[-1]] if word else source
        hits = []
        # degree 0 keys by the vertex at each offset
        keys = word if n else (source,) + tuple(map(target.__getitem__, word))
        # a support of degree n has at least n arrows
        for i in range(k - n + 1):
            for pos, sub in index.get(keys[i], ()):
                j = i + len(sub)
                if word[i:j] == sub:
                    hits.append((pos, i, j,
                                 ids.get(word[:i]) if i else source,
                                 ids.get(word[j:]) if j < k else end))
        return hits

    @memo
    def _first_arrows(self, n: int) -> dict[int, list[tuple[int, Word]]]:
        """First arrow (the vertex, in degree 0) -> the (position, arrow
        word) of the elements of AP_n whose support starts there."""
        index: dict[int, list[tuple[int, Word]]] = {}
        for pos, e in enumerate(self.ap[n]):
            key = e.word[0] if n else e.source
            index.setdefault(key, []).append((pos, e.word))
        return index

    @memo
    def positions(self, k: int) -> dict[Word, int]:
        """Support word -> position of each element of AP_k, for k >= 1,
        where a nonempty word fixes its path.  (Element v of AP_0 is the
        vertex v.)"""
        return {e.word: e.pos for e in self.ap[k]}

    @memo
    def sub(self, w: ApElement) -> list[tuple]:
        """The degree n-1 elements dividing w, as occurrences_in records.

        Division is strict, but equal supports across consecutive degrees
        cannot happen (the greedy chain is recoverable from the support),
        so any occurrence qualifies.  Odd degrees always yield exactly two
        divisors, one flush left and one flush right; for an arrow these
        are its source and its target vertex.
        """
        k = len(w.word)
        out = [d for d in self.occurrences_in(w.degree - 1, w.word, w.source)
               if d[2] - d[1] < k]
        if w.degree % 2:
            _require_two_flush(out, k)
        return out

    # -- differentials ----------------------------------------------------

    @memo
    def differential(self, n: int) -> dict[int, dict[tuple, int]]:
        """The degree-n map of the resolution, per generator 1 (x) w (x) 1
        keyed by the position of w in AP_n: its image in
        A (x) kAP_{n-1} (x) A, id triple (left, psi, right) -> coefficient.

        Even degrees sum over all divisors with their cofactors; odd
        degrees take the flush-right divisor minus the flush-left one.
        The divisors of an arrow alpha from x to y are its end vertices,
        so degree 1 is alpha (x) e_y (x) e_y - e_x (x) e_x (x) alpha.  A
        divisor with a cofactor in the ideal gives a zero term, which is
        left out.  Distinct divisors have distinct (left, psi), so no two
        terms share a key.
        """
        if n < 1:
            raise ValueError(f"differentials start in degree 1, not {n}")
        out: dict[int, dict[tuple, int]] = {}
        if n < len(self.ap):
            for w in self.ap[n]:
                if n % 2 == 0:
                    signed = [(1, d) for d in self.sub(w)]
                else:
                    first, second = _require_two_flush(self.sub(w),
                                                       len(w.word))
                    signed = [(1, second), (-1, first)]
                out[w.pos] = {(left, pos, right): c
                              for c, (pos, _, _, left, right) in signed
                              if left is not None and right is not None}
        return out

    # -- the realized complex ---------------------------------------------
    # No check builds it.  The test oracles and the benchmark's
    # resolution.bimodule_dim / d_nnz counter read it.

    @memo
    def bimodule_space(self, n: int):
        """Basis of A (x) kAP_n (x) A: triples (l, w, r) of basis path ids
        around the position w of each element, with matching endpoints."""
        basis = []
        if 0 <= n < len(self.ap):
            for w in self.ap[n]:
                for l in self.basis.ending_at(w.source):
                    for r in self.basis.starting_at(w.target):
                        basis.append((l, w.pos, r))
        index = {trip: i for i, trip in enumerate(basis)}
        return basis, index

    @memo
    def d_matrix(self, n: int) -> RationalMatrix:
        """The degree-n differential on the realized bases."""
        rows, row_index = self.bimodule_space(n - 1)
        cols, _ = self.bimodule_space(n)
        mat = RationalMatrix(len(rows), len(cols))
        diff = self.differential(n)
        for j, (l, w, r) in enumerate(cols):
            image = apply_map(self.basis, {(l, w, r): 1}, diff)
            for key, c in image.items():
                mat.add_at(row_index[key], j, c)
        return mat

    @memo
    def mu_matrix(self) -> RationalMatrix:
        """The augmentation A (x) kAP_0 (x) A -> A, (l, e, r) -> l r."""
        cols, _ = self.bimodule_space(0)
        mat = RationalMatrix(self.basis.dim, len(cols))
        for j, (l, w, r) in enumerate(cols):
            for p, c in augment(self.basis, {(l, w, r): 1}).items():
                mat.add_at(p, j, c)
        return mat

    def homology_dims(self) -> list[int]:
        """Homology of the augmented complex per spot (index 0 at A, n+1
        at degree n), summed over x from homology_by_vertex; all zero for
        a resolution."""
        return [0] + [sum(h.values()) for h in self.homology_by_vertex()]

    @memo
    def homology_by_vertex(self) -> list[dict[int, int]]:
        """Per degree n, vertex x -> homology of P (x)_A S_x at P_n.  With
        d o d = 0, all zero iff P is exact (docs/one-sided-exactness.md)."""
        per = [self._one_sided(n) for n in self.degrees()] + [{}]
        return [{x: d - r - per[n + 1].get(x, (0, 0))[1]
                 for x, (d, r) in per[n].items()}
                for n in self.degrees()]

    def _one_sided(self, n: int) -> dict[int, tuple[int, int]]:
        """Vertex x -> (dimension, rank of d_n) of P_n (x)_A S_x, with
        basis (l, w): w in AP_n ends at x, l ends at its source.  d_0 is
        the augmentation, of rank 1 from (e_x, e_x).  A term of d_n with a
        trivial right cofactor sends column (l, w) to row (l L, psi) of one
        matrix over every x, eliminated once.  Its blocks keep the full
        path l * w, which fixes x, so each pivot counts at its column's x."""
        diff = self.differential(n) if n else {}
        ending_at, mult = self.basis.ending_at, self.basis.mult
        trivial = self.quiver.num_vertices  # a trivial path's id is its vertex
        targets, rows, entries = [], {}, []
        for w in self.ap[n]:
            ls = ending_at(w.source)
            for (left, psi, right), c in diff.get(w.pos, {}).items():
                if right < trivial:
                    for col, l in enumerate(ls, len(targets)):
                        ll = mult(l, left)
                        if ll is not None:
                            row = rows.setdefault((ll, psi), len(rows))
                            entries.append((row, col, c))
            targets += [w.target] * len(ls)
        mat = RationalMatrix(len(rows), len(targets))
        for r, c, v in entries:
            mat.add_at(r, c, v)
        ranks = Counter(targets[c] for _, c in mat.echelon().pivots)
        return {x: (d, ranks[x] + int(n == 0))
                for x, d in Counter(targets).items()}

    def d_squared_is_zero(self) -> bool:
        """mu d_1 = 0 and d_{n-1} d_n = 0 on every generator 1 (x) w (x) 1,
        which determines these bimodule maps."""
        if any(augment(self.basis, image)
               for image in self.differential(1).values()):
            return False
        return not any(apply_map(self.basis, image, self.differential(n - 1))
                       for n in range(2, len(self.ap))
                       for image in self.differential(n).values())


def apply_map(basis: PathBasis, element: dict, images) -> dict:
    """The bimodule map with generator values images applied to element,
    sum c (L (x) psi (x) R): the sum of c L images[psi] R.  element and
    each value of images are elements of A (x) kAP (x) A, id triple ->
    coefficient, and so is the result, with zero entries dropped.
    images maps the position of psi to its value; a psi missing from
    images has value zero.  The inputs store no zero coefficient: a zero
    term would make the sum delete a key it never stored (KeyError)."""
    out: dict = {}
    mul = basis.mult
    for (tl, psi, tr), c in element.items():
        image = images.get(psi)
        if not image:
            continue
        for (sl, mid, sr), d in image.items():
            left = mul(tl, sl)
            if left is None:
                continue
            right = mul(sr, tr)
            if right is None:
                continue
            key = (left, mid, right)
            v = out.get(key, 0) + c * d
            if v:
                out[key] = v
            else:
                del out[key]
    return out


def augment(basis: PathBasis, element: dict) -> dict:
    """The augmentation mu(L (x) e (x) R) = L R applied to the element
    sum c (L (x) e (x) R) of A (x) kAP_0 (x) A, id triple -> coefficient:
    basis path id -> coefficient, zero entries dropped.  The element
    stores no zero coefficient, as for apply_map."""
    out: dict = {}
    for (left, _, right), c in element.items():
        p = basis.mult(left, right)
        if p is None:
            continue
        v = out.get(p, 0) + c
        if v:
            out[p] = v
        else:
            del out[p]
    return out


def _require_two_flush(subs: list[tuple], length: int) -> list[tuple]:
    """The flush-left and flush-right divisors of an odd-degree element
    with a support of this length (Bardzell), which its differential
    takes."""
    if len(subs) != 2 or not (subs[0][1] == 0 and subs[1][2] == length):
        raise CertificateError("odd-degree element without two flush divisors")
    return subs
