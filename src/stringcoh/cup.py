"""Cup products on Hochschild cohomology via comparison maps.

A degree-m cocycle lifts to a chain map of the resolution; composing a
degree-n cocycle with the n-th lift evaluates the product of the two
classes.  The paper displays a formula for the lift.

A degree-1 cocycle acts like a derivation, and the displayed formula,
which sees only the last arrow, is not a chain map when the cocycle has
a value strictly inside a relation of length >= 3.  The lift that cup
evaluates and chain_map_audit audits adds the Leibniz terms of the
interior arrows; it is a chain map by the proof in
docs/comparison-lift.md.  first_formula_failure still audits the
displayed formula, which check reports as a documented deviation.

Where and how a lift can be nonzero is decided once per complex, in
four tables memoized on it: splittings, lift_tails, leibniz_slots and
cofaces.

Lifts are audited and evaluated on the generators 1 (x) w (x) 1 of the
resolution: every map involved is a bimodule map, so its values on
generators determine it.  _walk audits all the cocycles of one degree
together, one lift degree at a time, and computes each value, in every
degree, by one loop over that layer's table rows (_layer_values).  It
visits only the generators where a side of a square can be nonzero,
found from the cocycle's support through lift_tails and cofaces
(docs/comparison-lift.md, "Which generators the audit visits").  A
value is an element of A (x) kAP (x) A in the form of resolution.py, a
dict from the id triple (left, psi, right) to a nonzero coefficient.

The lifts of the cohomology representatives are walked once per tower
and kept whole in the tower's memo (rep_lifts).  cup_table evaluates
every product on them and certifies that each lies in the image of the
previous cochain map; cup walks its right factor alone.  Where the
displayed formula is the lift, first_formula_failure does not walk a
representative again.  A certificate the theory guarantees raises
CertificateError when it fails.

The normalizations read one table per degree, the slide phi on pair
positions (slides): normalize_leq slides by it, normalize_geq by its
inverse.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .hochschild import CochainComplex, ParallelPair
from .linalg import CertificateError, RationalMatrix
from .resolution import ApElement, Word, apply_map, augment, memo


@dataclass
class Cochain:
    """A cochain in the parallel-pair basis: degree plus sparse coefficients
    indexed by position in the canonical pair list of that degree, ints
    where integral.  A zero coefficient is dropped when the cochain is
    built, so none is stored.  A plain value: it caches nothing, and the
    lifts of the cohomology representatives live in the tower's memo
    (rep_lifts)."""

    degree: int
    coeffs: dict[int, int | Fraction] = field(default_factory=dict)

    def __post_init__(self):
        if not all(self.coeffs.values()):
            self.coeffs = {i: c for i, c in self.coeffs.items() if c}

    def is_zero(self) -> bool:
        return not self.coeffs

    def sub(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree:
            raise ValueError("cochains of different degrees")
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            out[i] = out.get(i, 0) - c
        return Cochain(self.degree, out)


def _support_index(cx: CochainComplex, f: Cochain) -> dict:
    """The values of f by support: position in AP_{deg f} -> the
    (coefficient, gamma id) pairs of f there, in pair order."""
    keys = cx.pair_keys(f.degree)
    index: dict[int, list[tuple[int | Fraction, int]]] = {}
    for i, c in sorted(f.coeffs.items()):
        rho, gamma = keys[i]
        index.setdefault(rho, []).append((c, gamma))
    return index


def is_cocycle(cx: CochainComplex, f: Cochain) -> bool:
    """Whether the next cochain map sends f to zero: the sum of its
    columns (cached per degree) over the support of f."""
    if f.degree >= cx.top:
        return True  # the next cochain space is zero
    cols = cx.columns(f.degree + 1)
    image: dict[int, Fraction] = {}
    for j, c in f.coeffs.items():
        for i, v in cols[j].items():
            s = image.get(i, 0) + v * c
            if s:
                image[i] = s
            else:
                del image[i]
    return not image


def _require_cocycle(cx: CochainComplex, f: Cochain):
    if not is_cocycle(cx, f):
        raise ValueError("expected a cocycle; the chain-map property needs it")


# -- where and how comparison lifts are nonzero ------------------------------
# Per position in AP_{n+m}, in ids, shared by every cocycle and both lift
# formulas.

def require_lift_degree(n: int, m: int, w: ApElement):
    """A degree-n lift of a degree-m cocycle (m >= 1) is evaluated on the
    generators of AP_{n+m}; CertificateError for any other w."""
    if m < 1 or w.degree != n + m:
        raise CertificateError(
            f"a degree-{n} lift of a degree-{m} cocycle takes AP_{n + m}, "
            f"not AP_{w.degree}")


@memo
def splittings(cx: CochainComplex, n: int, m: int) -> list[tuple]:
    """Per w in AP_{n+m}, by position: the position in AP_m of its
    degree-m tail, every occurrence L * psi * R of an element psi of AP_n
    inside head * u with both cofactors in the basis, as (id of L,
    position of psi, id of R), in the order of Resolution.occurrences_in,
    and the count of all occurrences.  The support splits uniquely as
    head * u * tail: head of degree n (a chain prefix), tail of degree m
    (a dual-chain suffix), u a basis path; CertificateError otherwise.
    For n = 0 the tail is w itself, and the one occurrence is the source
    vertex x of w: (x, x, x), since vertex x is element x of AP_0 and
    basis path x.  An occurrence with a cofactor in the ideal adds
    nothing to a comparison lift but is counted.  Every element of
    AP_{n+m} is checked to have degree n + m.
    ValueError unless n >= 0, m >= 1 and n + m <= top."""
    if not (n >= 0 and m >= 1 and n + m <= cx.top):
        raise ValueError(
            f"lift tables take n >= 0, m >= 1 and n + m <= {cx.top}, "
            f"not n = {n}, m = {m}")
    res = cx.res
    if n:
        heads, tails = res.positions(n), res.positions(m)
        ids = cx.basis.word_index
    out = []
    for w in res.ap[n + m]:
        require_lift_degree(n, m, w)
        if n == 0:
            out.append((w.pos, ((w.source,) * 3,), 1))
            continue
        # the head is word[:i], head * u is word[:j] and the tail word[j:]
        word = w.word
        if n == 1:
            i = 1
        else:
            rel = w.chain[n - 2]
            i = _occurrence_start(rel, word) + len(rel)
        j = len(word) - 1 if m == 1 else _occurrence_start(w.op_chain[n], word)
        tail = tails.get(word[j:])
        if heads.get(word[:i]) is None or tail is None:
            raise CertificateError("splitting fell outside the computed AP sets")
        if i > j:
            raise CertificateError("head and tail of the splitting overlap")
        if i < j and word[i:j] not in ids:
            raise CertificateError("middle of the splitting is not a basis path")
        occurrences = res.occurrences_in(n, word[:j], w.source)
        divisors = [(left, psi, right)
                    for psi, _, _, left, right in occurrences
                    if left is not None and right is not None]
        out.append((tail, tuple(divisors), len(occurrences)))
    return out


def _occurrence_start(rel: Word, word: Word) -> int:
    """Offset of the occurrence of the relation word rel in word.  A path
    of an acyclic quiver passes each arrow at most once, so the first
    arrow of rel fixes the only candidate offset."""
    i = word.index(rel[0]) if rel[0] in word else -1
    if i < 0 or word[i : i + len(rel)] != rel:
        raise CertificateError("chain relation does not occur in its support")
    return i


@memo
def lift_tails(cx: CochainComplex, n: int, m: int) -> dict[int, list[int]]:
    """Position s in AP_m -> the positions of the w in AP_{n+m} where a
    degree-n lift of a degree-m cocycle f reads f(s), so the only w where
    it can be nonzero: the w whose degree-m tail is s (splittings), and
    for m = 1 and n >= 1 also the w with a Leibniz slot at the arrow s
    (leibniz_slots; an arrow is its own position in AP_1)."""
    out: dict[int, list[int]] = {}
    for i, (tail, _, _) in enumerate(splittings(cx, n, m)):
        out.setdefault(tail, []).append(i)
    if m == 1 and n >= 1:
        for i, slots in enumerate(leibniz_slots(cx, n)):
            for a in {slot[2] for slot in slots}:
                out.setdefault(a, []).append(i)
    return out


@memo
def leibniz_slots(cx: CochainComplex, n: int) -> list[tuple]:
    """Per w in AP_{n+1}, by position: where the Leibniz terms of a
    degree-1 lift can sit.  Each slot is an occurrence
    L * psi * P * alpha * S = w with psi in AP_n, L in the basis and
    alpha an arrow other than the last of w, as (id of L, position of
    psi, alpha, id of P, id of S), by occurrence and then by the position
    of alpha.  A slot whose P or S falls in the ideal adds nothing and is
    left out.  ValueError unless 0 <= n <= top - 1."""
    if not 0 <= n < cx.top:
        raise ValueError(
            f"Leibniz slots run in degrees 0..{cx.top - 1}, not {n}")
    ids = cx.basis.word_index
    target = cx.quiver.arrow_target
    out = []
    for w in cx.res.ap[n + 1]:
        word, source = w.word, w.source
        last = len(word) - 1
        slots = []
        # a divisor of w ending at its last arrow leaves no slot
        for psi, _, b, left, _ in cx.res.sub(w):
            if left is None:
                continue
            at_b = target[word[b - 1]] if b else source
            for j in range(b, last):
                mid = ids.get(word[b:j]) if j > b else at_b
                rest = ids.get(word[j + 1 :])
                if mid is not None and rest is not None:
                    slots.append((left, psi, word[j], mid, rest))
        out.append(tuple(slots))
    return out


@memo
def cofaces(cx: CochainComplex, k: int) -> dict[int, list[int]]:
    """Position of psi in AP_{k-1} -> the positions in AP_k of the w whose
    differential d_k(1 (x) w (x) 1) has a term with middle psi."""
    out: dict[int, list[int]] = {}
    for i, image in cx.res.differential(k).items():
        for _, psi, _ in image:
            out.setdefault(psi, []).append(i)
    return out


def _layer_values(cx: CochainComplex, rows: list, slots, vals: dict,
                  positions) -> list[dict]:
    """The degree-n lift values at 1 (x) w (x) 1 for w at these positions
    of AP_{n+m}, as id-triple dicts, of the degree-m cocycle f with vals =
    _support_index(cx, f), read off rows = splittings(n, m), n >= 0: the
    displayed formula, plus the Leibniz terms of the lift where slots =
    leibniz_slots(n) is given."""
    out = []
    mult, mult3 = cx.basis.mult, cx.basis.mult3
    for i in positions:
        tail, divisors, _ = rows[i]
        value: dict[tuple, int | Fraction] = {}
        at_tail = vals.get(tail)
        if at_tail:
            # distinct divisors have distinct (left, psi), and distinct
            # gammas distinct products with right, so no two terms share
            # a key
            for left, psi, right in divisors:
                for c, gamma in at_tail:
                    rg = mult(right, gamma)
                    if rg is not None:
                        value[(left, psi, rg)] = c
        if slots is not None:
            # f keeps its value at an arrow alpha under alpha's position
            # in AP_1, which is alpha itself
            for left, psi, alpha, mid, rest in slots[i]:
                for c, gamma in vals.get(alpha, ()):
                    right = mult3(mid, gamma, rest)
                    if right is not None:
                        # a slot can share its key with another slot or
                        # with the displayed formula
                        key = (left, psi, right)
                        v = value.get(key, 0) + c
                        if v:
                            value[key] = v
                        else:
                            del value[key]
        out.append(value)
    return out


def _walk(cx: CochainComplex, fs: list[Cochain],
          leibniz: bool) -> tuple[int | None, list[list[dict]]]:
    """Walk the lifts (with the Leibniz terms when leibniz, else the
    displayed formula) of the cocycles fs, all of degree m, together, and
    check each on generators:
    mu F_0 (1 (x) w (x) 1) = f(w) for w in AP_m, and
    d_n F_n (1 (x) w (x) 1) = F_{n-1} d_{n+m} (1 (x) w (x) 1) for w in
    AP_{n+m}.  Bimodule maps are determined by their values on
    generators, so this decides the same as comparing the realized
    matrices (docs/comparison-lift.md).

    The outer loop runs over n and reads each layer's tables once.  Each
    cocycle visits, in AP order, only the generators where a side can be
    nonzero: those lift_tails(n, m) lists under a support of f, and those
    whose d_{n+m} meets a nonzero value of F_{n-1} (cofaces(n + m)).
    Both sides vanish on every other generator.

    A failed square stops the walk of its cocycle and of every later one
    in fs.  Returns the index k in fs of the first cocycle whose walk
    fails (None when all pass, and when fs is empty), and, when leibniz
    and every walk passes, each cocycle's whole lift: F_n per n, position
    of w -> nonzero value, which products are evaluated on.  Otherwise
    the list is empty, and each walk holds only its previous layer: the
    displayed formula is only audited, so its walk keeps no lift."""
    if not fs:
        return None, []
    for f in fs:
        _require_cocycle(cx, f)
    m, res, basis = fs[0].degree, cx.res, cx.basis
    vals = [_support_index(cx, f) for f in fs]
    below: list[dict] = [{}] * len(fs)
    lifts: list[list[dict]] = [[] for _ in fs] if leibniz else []
    walking = range(len(fs))
    failed = None
    for n in range(cx.top - m + 1):
        # splittings checks the range and the degree of every element
        rows = splittings(cx, n, m)
        slots = leibniz_slots(cx, n) if leibniz and m == 1 and n else None
        tails = lift_tails(cx, n, m)
        if n:
            d_n, d_nm = res.differential(n), res.differential(n + m)
            coface_of = cofaces(cx, n + m)
        still = []
        for k in walking:
            if failed is not None and k > failed:
                break
            v, prev = vals[k], below[k]
            visit = {i for s in v for i in tails.get(s, ())}
            if n:
                visit.update(i for psi in prev for i in coface_of.get(psi, ()))
            order = sorted(visit)
            cur = {}
            values = _layer_values(cx, rows, slots, v, order)
            for i, val in zip(order, values):
                if n:
                    holds = (apply_map(basis, val, d_n)
                             == apply_map(basis, d_nm[i], prev))
                else:
                    holds = (augment(basis, val)
                             == {gamma: c for c, gamma in v.get(i, ())})
                if not holds:
                    failed = k
                    break
                if val:
                    cur[i] = val
            else:
                below[k] = cur
                if leibniz:
                    lifts[k].append(cur)
                still.append(k)
        walking = still
    return failed, (lifts if failed is None else [])


def _slot_arrows(cx: CochainComplex) -> set[int]:
    """The arrow alpha of every Leibniz slot of leibniz_slots(n), n >= 1."""
    return {slot[2] for n in range(1, cx.top)
            for slots in leibniz_slots(cx, n) for slot in slots}


def chain_map_audit(cx: CochainComplex, f: Cochain) -> bool:
    """Whether the lift that cup evaluates is a chain map for f: _walk of
    f alone."""
    return _walk(cx, [f], True)[0] is None


def first_formula_failure(cx: CochainComplex, m: int) -> int | None:
    """The position in cocycle_basis(cx, m) of the first cocycle whose
    displayed formula is not a chain map, None if none.  It is not for
    degree-1 cocycles with a value on an arrow strictly inside a relation
    of length >= 3; see docs/comparison-lift.md.

    The displayed formula is the lift in degree >= 2, and for a degree-1
    cocycle with no value on a slot arrow (_slot_arrows), which no
    Leibniz term reads; there a representative's formula walk is its
    walk in rep_lifts, which raises on a failure.  The other basis
    cocycles are walked together, once, on the displayed formula."""
    reps = cohomology_basis(cx, m)
    rep_lifts(cx, m)
    arrows = _slot_arrows(cx) if m == 1 else ()
    keys = cx.pair_keys(1)  # keys[i][0] is the arrow of pair i
    # distinct basis cocycles have distinct coefficients, so a cocycle
    # is a representative when it equals one
    todo = [(k, f) for k, f in enumerate(cocycle_basis(cx, m))
            if f not in reps
            or arrows and any(keys[i][0] in arrows for i in f.coeffs)]
    failed, _ = _walk(cx, [f for _, f in todo], False)
    return None if failed is None else todo[failed][0]


def cup(cx: CochainComplex, g: Cochain, f: Cochain) -> Cochain:
    """The product cochain: g evaluated on the audited chain-map lift of
    f, (g cup f)(w) = sum c L g(psi) R over the lift's value at w, as
    cup_table evaluates it; zero above the top.  f is walked alone, on
    the lift that is a chain map by docs/comparison-lift.md, so a failed
    walk raises.

    Both inputs must be positive-degree cocycles; the result is again a
    cocycle (CertificateError otherwise), of degree deg g + deg f.
    """
    n, m = g.degree, f.degree
    if n < 1 or m < 1:
        raise ValueError("cup products are formed from positive degrees")
    (lift,) = _audited_lifts(cx, [f])
    _require_cocycle(cx, g)
    return _evaluate(cx, _support_index(cx, g), n + m,
                     lift[n] if n < len(lift) else {})


def _audited_lifts(cx: CochainComplex, fs: list[Cochain]) -> list[list[dict]]:
    """The whole lift of each of the cocycles fs, of one degree, from one
    _walk.  Each is a chain map by docs/comparison-lift.md, so a failed
    walk raises CertificateError."""
    failed, lifts = _walk(cx, fs, True)
    if failed is not None:
        raise CertificateError(
            f"the lift of a degree-{fs[0].degree} cocycle is not a chain map")
    return lifts


def _evaluate(cx: CochainComplex, at: dict, total: int,
              lift: dict) -> Cochain:
    """g cup f in degree total for cocycles g and f, from at =
    _support_index(cx, g) and lift: position of w -> the value of the
    degree-(deg g) lift of f at 1 (x) w (x) 1, an id-triple dict, for
    every w of AP_total where it is nonzero."""
    index = cx.pair_index(total)
    mult3 = cx.basis.mult3
    coeffs: dict[int, int | Fraction] = {}
    for w, value in lift.items():
        acc: dict[int, int | Fraction] = {}
        for (left, psi, right), c in value.items():
            for cg, gam in at.get(psi, ()):
                prod = mult3(left, gam, right)
                if prod is None:
                    continue
                v = acc.get(prod, 0) + c * cg
                if v:
                    acc[prod] = v
                else:
                    del acc[prod]
        for path, v in acc.items():
            coeffs[index[(w, path)]] = v
    out = Cochain(total, coeffs)
    if not is_cocycle(cx, out):
        raise CertificateError("a product of cocycles must be a cocycle")
    return out


# -- normalization ---------------------------------------------------------

def _unique_surviving_successor(cx: CochainComplex, gamma: Word) -> int:
    """The one arrow b with gamma * b in the basis, for the word of a
    nontrivial basis path."""
    q, words = cx.quiver, cx.basis.word_index
    cands = [b for b in q.out_arrows(q.arrow_target[gamma[-1]])
             if gamma + (b,) in words]
    if len(cands) != 1:
        raise CertificateError("surviving continuation is not unique")
    return cands[0]


def _pair_at(cx: CochainComplex, degree: int, support: Word, gamma: Word,
             want_label: str) -> tuple[int, ParallelPair]:
    pos = cx.res.positions(degree).get(support)
    if pos is None:
        raise CertificateError("rewritten support left the computed AP sets")
    idx = cx.pair_index(degree)[(pos, cx.basis.word_index[gamma])]
    pair = cx.pairs(degree)[idx]
    if pair.label != want_label:
        raise CertificateError(
            f"rewritten pair is {pair.label}, expected {want_label}")
    return idx, pair


# The labels phi slides from -> the labels it slides to.
_SLIDES = {"(1,0)+": "+(0,1)", "(1,0)-+": "+-(0,1)"}


def phi(cx: CochainComplex, pair: ParallelPair) -> tuple[int, ParallelPair]:
    """Slide a (1,0)+ pair to a +(0,1) pair, or a (1,0)-+ pair to a
    +-(0,1) pair: strip the shared first arrow and append the unique
    surviving continuation of gamma or, for (1,0)-+, where gamma's own
    continuation dies, of gamma without its first arrow."""
    target = _SLIDES[pair.label]
    gamma = cx.basis.words[pair.gamma_id]
    beta = _unique_surviving_successor(
        cx, gamma if pair.label == "(1,0)+" else gamma[1:])
    return _pair_at(cx, pair.degree, pair.rho.word[1:] + (beta,),
                    gamma[1:] + (beta,), target)


@memo
def slides(cx: CochainComplex, m: int) -> tuple[dict, dict]:
    """phi as a table of degree-m pair positions, and its inverse; cached
    on cx.  phi must be a bijection onto the +(0,1) and +-(0,1) pairs."""
    forward = {i: phi(cx, pair)[0]
               for i, pair in enumerate(cx.pairs(m)) if pair.label in _SLIDES}
    back = {j: i for i, j in forward.items()}
    counts = cx.class_counts(m)
    if not len(forward) == len(back) == counts["+(0,1)"] + counts["+-(0,1)"]:
        raise CertificateError("phi is not a bijection")
    return forward, back


def _normalize(cx: CochainComplex, f: Cochain, keep_classes,
               slide: dict[int, int]) -> Cochain:
    m = f.degree
    if m < 1:
        raise ValueError("normalizations are defined in positive degrees")
    sign = -1 if m % 2 == 0 else 1  # (-1)^(m-1)
    out: dict[int, int | Fraction] = {}

    def put(i, v):
        out[i] = out.get(i, 0) + v  # Cochain drops a sum that cancels

    pairs = cx.pairs(m)
    for i, c in sorted(f.coeffs.items()):
        pair = pairs[i]
        cls = pair.class_label
        if cls in keep_classes:
            put(i, c)
        elif cls == "(1,1)":
            # In degree 1 the diagonal pairs (alpha, alpha) have no
            # one-degree-down rewriting and their classes can be nonzero,
            # so they are kept; from degree 2 up they are coboundaries.
            if m == 1:
                put(i, c)
        elif i in slide:
            # off the table are the dead (1,0)-- or --(0,1) pairs
            put(slide[i], c * sign)
    return Cochain(m, out)


def normalize_leq(cx: CochainComplex, f: Cochain) -> Cochain:
    """Rewrite a cochain, modulo coboundaries, to one supported away from
    the shared-first-arrow pairs.  Linear on the pair basis; the
    difference from the input is a coboundary termwise, so cocycles keep
    their class.  The (1,0)+ and (1,0)-+ pairs slide by phi's table, and
    the (1,0)-- pairs, which do not slide, are dropped."""
    return _normalize(cx, f, ("(0,0)", "(0,1)"), slides(cx, f.degree)[0])


def normalize_geq(cx: CochainComplex, f: Cochain) -> Cochain:
    """Rewrite a cochain, modulo coboundaries, to one supported away from
    the shared-last-arrow pairs.  Mirror image of normalize_leq, sliding
    back by the inverse of phi's table."""
    return _normalize(cx, f, ("(0,0)", "(1,0)"), slides(cx, f.degree)[1])


def is_coboundary(cx: CochainComplex, f: Cochain):
    """Exact membership of f in the image of the previous cochain map.
    Returns (True, preimage) or (False, certificate), each a sparse dict
    (RationalMatrix.in_column_space).  Zero is exactly the image of zero,
    so it needs no elimination.  In degree 0 and above the top the
    previous map is zero, so the first nonzero coordinate of f is a
    certificate."""
    if f.is_zero():
        return (True, {})
    m = f.degree
    if m == 0 or m > cx.top:
        return (False, {min(f.coeffs): 1})
    return cx.matrix(m).in_column_space(f.coeffs)


@memo
def cocycle_basis(cx: CochainComplex, m: int) -> list[Cochain]:
    """The canonical kernel basis of the degree m+1 cochain map, cached
    on cx; do not change its cochains."""
    vecs = cx.echelon(m + 1).nullspace() if 0 <= m <= cx.top else []
    return [Cochain(m, vec) for vec in vecs]


@memo
def cohomology_basis(cx: CochainComplex, m: int) -> list[Cochain]:
    """Cocycles whose classes form a basis of degree-m cohomology: the
    f_k of cocycle_basis(cx, m) independent of the coboundaries and of
    f_0..f_{k-1}.  Cached on cx; these are cochains of cocycle_basis(cx,
    m) itself.

    f_k is 1 at the k-th free column c_k of the degree m+1 elimination
    and 0 at the other free columns, so a cocycle is the combination of
    the f_k its free coordinates give, and the coboundaries are written
    in that basis by matrix(m) restricted to the free rows.  f_k is
    dropped exactly when row k of the restriction is independent of the
    rows of the later free columns.  Those k are the pivot columns of
    one elimination of the restriction transposed, with the free
    coordinates as columns in reverse order, built from the coboundaries
    that meet a free row.  Its rank must be rank(m); CertificateError
    otherwise.  No elimination runs where the ranks settle the choice:
    rank(m) = 0 keeps every cocycle, and rank(m) = nullity(m+1) none.
    Degree 0 receives no coboundaries, so it keeps every cocycle."""
    cocycles = cocycle_basis(cx, m)
    free = len(cocycles)
    rank = cx.rank(m) if free and m else 0
    if not rank:
        return list(cocycles)
    if rank == free:
        return []
    pivots = set(cx.echelon(m + 1).pivot_columns())
    # free row c_k of matrix(m) -> column free - 1 - k of the elimination
    at = {c: free - 1 - k for k, c in enumerate(
        c for c in range(cx.matrix(m).rows) if c not in pivots)}
    row_of: dict[int, int] = {}  # column of matrix(m) -> row it fills
    entries = []
    for i, j, v in cx.matrix(m).items():
        k = at.get(i)
        if k is not None:
            entries.append((row_of.setdefault(j, len(row_of)), k, v))
    restricted = RationalMatrix(len(row_of), free)
    for r, k, v in entries:
        restricted.add_at(r, k, v)
    dropped = set(restricted.pivot_columns())
    if len(dropped) != rank:
        raise CertificateError(
            f"the image restricted to the free coordinates has rank "
            f"{len(dropped)}, not rank(m) = {rank}")
    return [f for k, f in enumerate(cocycles) if free - 1 - k not in dropped]


@memo
def rep_lifts(cx: CochainComplex, m: int) -> list[list[dict]]:
    """The audited chain-map lift of each of cohomology_basis(cx, m), in
    that order: F_n per n, position of w in AP_{n+m} -> the nonzero value
    at 1 (x) w (x) 1.  One walk of the representatives together, cached
    on cx; a failed walk raises CertificateError."""
    return _audited_lifts(cx, cohomology_basis(cx, m))


@dataclass
class CupEntry:
    deg_g: int
    deg_f: int
    idx_g: int
    idx_f: int
    beyond_top: bool
    passed: bool  # the product is a coboundary, or of degree beyond top


@dataclass
class CupReport:
    class_dims: dict[int, int]
    entries: list[CupEntry]
    odd_positions_max: int
    # A constant that only the benchmark's cup.solved_lifts counter reads:
    # cup_table solves no lift.
    solved_lift_degrees = ()

    @property
    def pairs_checked(self) -> int:
        return len(self.entries)

    @property
    def all_zero(self) -> bool:
        return all(e.passed for e in self.entries)

    def failures(self) -> list[CupEntry]:
        return [e for e in self.entries if not e.passed]


def cup_table(cx: CochainComplex) -> CupReport:
    """Choose basis classes in every positive degree, form all pairwise
    products, and certify each one zero in cohomology.

    The lift of each representative is audited once per tower as a
    chain map (rep_lifts, which walks the representatives of one degree
    together), and every product g cup f is evaluated on the lift of f
    kept there, as by cup; it must land in the image of the previous
    cochain map.  A failed audit raises CertificateError: the lift is a
    chain map by docs/comparison-lift.md, and no product is certified on
    an unaudited lift.
    """
    reps: dict[int, list[Cochain]] = {}
    lifts: dict[int, list[list[dict]]] = {}
    class_dims: dict[int, int] = {}
    for m in range(1, cx.top + 1):
        reps[m] = cohomology_basis(cx, m)
        class_dims[m] = len(reps[m])
        # walking the lifts checks that every representative is a cocycle
        lifts[m] = rep_lifts(cx, m)

    odd_max = 0
    entries: list[CupEntry] = []
    for n, gs in reps.items():
        # each left factor's values by support, once; none in the top
        ats = [_support_index(cx, g) for g in gs] if n < cx.top else []
        for m, fs in reps.items():
            total = n + m
            if total <= cx.top and n % 2 == 1 and gs and fs:
                odd_max = max([odd_max] + [c for _, _, c in splittings(cx, n, m)])
            for i in range(len(gs)):
                for j in range(len(fs)):
                    if total > cx.top:
                        entries.append(CupEntry(n, m, i, j, True, True))
                        continue
                    prod = _evaluate(cx, ats[i], total, lifts[m][j][n])
                    entries.append(CupEntry(n, m, i, j, False,
                                            is_coboundary(cx, prod)[0]))
    return CupReport(class_dims, entries, odd_max)
