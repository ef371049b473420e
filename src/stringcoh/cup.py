"""Cup products on Hochschild cohomology via comparison maps.

A degree-m cocycle lifts to a chain map of the resolution; composing a
degree-n cocycle with the n-th lift evaluates the product of the two
classes.  The paper displays a formula for the lift (comparison_terms).

A degree-1 cocycle acts like a derivation, and the displayed formula,
which sees only the last arrow, is not a chain map when the cocycle has
a value strictly inside a relation of length >= 3.  The lift that cup
evaluates and chain_map_audit audits (lift_terms) adds the Leibniz terms
of the interior arrows; it is a chain map by the proof in
docs/comparison-lift.md.  formula_audit still audits the displayed
formula, which check reports as a documented deviation.

Lifts are audited and evaluated on the generators 1 (x) w (x) 1 of the
resolution: every map involved is a bimodule map, so its values on
generators determine it.  The audit visits only the generators where a
side of a square can be nonzero, found from the cocycle's support through
two indexes that CochainComplex builds once, lift_tails and cofaces
(docs/comparison-lift.md, "Which generators the audit visits"), and
keeps only the nonzero values.  The walk speaks ids throughout: a value
is an element of A (x) kAP (x) A in the form of resolution.py, a dict
from the id triple (left, psi, right) to a nonzero coefficient.

cup and cup_table evaluate every product on that audited walk: the
right factor's lift is audited as a chain map, and cup_table certifies
that each product evaluated on those values lies in the image of the
previous cochain map.  A certificate the theory guarantees raises
CertificateError when it fails.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .hochschild import CochainComplex, ParallelPair, require_lift_degree
from .linalg import CertificateError, RationalMatrix
from .resolution import ApElement, Word, apply_map, augment, memo


@dataclass
class Cochain:
    """A cochain in the parallel-pair basis: degree plus sparse coefficients
    indexed by position in the canonical pair list of that degree, ints
    where integral.  Fill coeffs before the first terms_at or supports,
    which index them once.  A cochain belongs to one complex: it keeps
    that index, and the walked values of its chain-map lift when it is a
    cohomology representative (_chain_map_lift)."""

    degree: int
    coeffs: dict[int, int | Fraction] = field(default_factory=dict)
    _by_support: dict | None = field(default=None, init=False, repr=False,
                                     compare=False)
    _lift: list | None = field(default=None, init=False, repr=False,
                               compare=False)

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms_at(self, cx: CochainComplex, pos: int):
        """The (coefficient, gamma id) values this cochain takes on the
        element at position pos of its degree's AP set, in pair order."""
        return self._values(cx).get(pos, ())

    def supports(self, cx: CochainComplex):
        """The positions of the AP elements where this cochain has a
        value."""
        return self._values(cx).keys()

    def _values(self, cx: CochainComplex) -> dict:
        if self._by_support is None:
            keys = cx.pair_keys(self.degree)
            index: dict[int, list[tuple[int | Fraction, int]]] = {}
            for i, c in sorted(self.coeffs.items()):
                rho, gamma = keys[i]
                index.setdefault(rho, []).append((c, gamma))
            self._by_support = index
        return self._by_support

    def sub(self, other: "Cochain") -> "Cochain":
        if self.degree != other.degree:
            raise ValueError("cochains of different degrees")
        out = dict(self.coeffs)
        for i, c in other.coeffs.items():
            v = out.get(i, 0) - c
            if v:
                out[i] = v
            else:
                out.pop(i, None)
        return Cochain(self.degree, out)


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


def comparison_terms(cx: CochainComplex, f: Cochain, n: int,
                     w: ApElement) -> dict[tuple, int | Fraction]:
    """The displayed (paper's) formula for the degree-n lift of the
    cocycle f, applied to 1 (x) w (x) 1, as an id-triple dict.

    For n = 0 this is 1 (x) e (x) f(w).  For n > 0, split w as
    head * u * tail and sum L (x) psi (x) R f(tail) over all divisors psi
    of head * u in degree n; terms whose cofactors die in the ideal are
    dropped.  For even n the sum is head alone; odd n can have several
    divisor positions, so the sum is taken literally.  For degree-1
    cocycles this sees only the last arrow of w and is then not always a
    chain map; lift_terms is.
    """
    m = f.degree
    require_lift_degree(n, m, w)
    if n == 0:
        x = w.source  # e_x is basis path x and element x of AP_0
        return {(x, x, gamma): c for c, gamma in f.terms_at(cx, w.pos)}
    tail, divisors, _ = cx.splittings(n, m)[w.pos]
    vals = f.terms_at(cx, tail)
    out: dict[tuple, int | Fraction] = {}
    mult = cx.basis.mult
    # distinct divisors have distinct (left, psi), and distinct gammas
    # distinct products with right, so no two terms share a key
    for left, psi, right in divisors:
        for c, gamma in vals:
            rg = mult(right, gamma)
            if rg is not None:
                out[(left, psi, rg)] = c
    return out


def lift_terms(cx: CochainComplex, f: Cochain, n: int,
               w: ApElement) -> dict[tuple, int | Fraction]:
    """The degree-n chain-map lift of the cocycle f, applied to
    1 (x) w (x) 1, as an id-triple dict.

    This is the displayed formula (comparison_terms) plus, for a degree-1
    cocycle and n >= 1, its interior positions: a degree-1 cocycle acts
    like a derivation, so the lift follows the Leibniz rule over every
    arrow of w.  Writing w = P_j * alpha_j * S_j, each arrow alpha_j where
    f has a value adds L (x) psi (x) R f(alpha_j) S_j for every occurrence
    L * psi * R of an element psi of AP_n inside the prefix P_j.  The last
    arrow alone gives the displayed formula.  Cocycles of degree >= 2 and
    n = 0 lift by the displayed formula unchanged.
    """
    out = comparison_terms(cx, f, n, w)
    if f.degree != 1 or n == 0:
        return out
    mult3 = cx.basis.mult3
    # f keeps its value at an arrow alpha under alpha's position in AP_1,
    # which is alpha itself
    for left, psi, alpha, mid, rest in cx.leibniz_slots(n)[w.pos]:
        for c, gamma in f.terms_at(cx, alpha):
            right = mult3(mid, gamma, rest)
            if right is not None:
                # a slot can share its key with another slot or with
                # the displayed formula
                key = (left, psi, right)
                v = out.get(key, 0) + c
                if v:
                    out[key] = v
                else:
                    del out[key]
    return out


def _augments_to(cx: CochainComplex, f: Cochain, w: ApElement,
                 value: dict) -> bool:
    """Whether the augmentation mu(L (x) e (x) R) = L R sends the
    degree-0 lift value at w to f(w)."""
    return (augment(cx.basis, value)
            == {gamma: c for c, gamma in f.terms_at(cx, w.pos)})


def _lift_support(cx: CochainComplex, f: Cochain, n: int) -> set[int]:
    """Positions in AP_{n+m} of the generators where a degree-n lift of
    the degree-m cocycle f can be nonzero: those that lift_tails lists
    under a support of f."""
    tails = cx.lift_tails(n, f.degree)
    return {i for s in f.supports(cx) for i in tails.get(s, ())}


def _lift_values(cx: CochainComplex, f: Cochain, terms):
    """The nonzero generator values F_n(1 (x) w (x) 1) = terms(cx, f, n, w)
    of a lift of f, id-triple dicts, one dict per degree n with
    n + m <= top from the position of w in AP_{n+m}, each checked on
    generators:
    mu F_0 (1 (x) w (x) 1) = f(w) for w in AP_m, and
    d_n F_n (1 (x) w (x) 1) = F_{n-1} d_{n+m} (1 (x) w (x) 1) for w in
    AP_{n+m}.  None if the augmentation or a square fails.

    Both sides of each square are bimodule maps, which are determined by
    their values on the generators, so this decides the same as comparing
    the realized matrices (docs/comparison-lift.md).  The walk visits, in
    AP order, only the generators where a side can be nonzero: where the
    lift itself can be (_lift_support), and where d_{n+m}(1 (x) w (x) 1)
    meets a nonzero value of F_{n-1} (CochainComplex.cofaces).  Both sides vanish on every other generator,
    so the verdict and the nonzero values are those of a walk over all of
    AP_{n+m}.
    """
    _require_cocycle(cx, f)
    m = f.degree
    res = cx.res
    values: list[dict] = []
    for n in range(res.top - m + 1):
        visit = _lift_support(cx, f, n)
        if n:
            d_n, d_nm = res.differential(n), res.differential(n + m)
            cofaces = cx.cofaces(n + m)
            visit.update(i for psi in values[-1] for i in cofaces.get(psi, ()))
        layer = res.ap[n + m]
        cur = {}
        for i in sorted(visit):
            val = terms(cx, f, n, layer[i])
            if n:
                holds = (apply_map(cx.basis, val, d_n)
                         == apply_map(cx.basis, d_nm[i], values[-1]))
            else:
                holds = _augments_to(cx, f, layer[i], val)
            if not holds:
                return None
            if val:
                cur[i] = val
        values.append(cur)
    return values


def _chain_map_lift(cx: CochainComplex, f: Cochain):
    """_lift_values of f on lift_terms.  The walk of a cohomology
    representative (cohomology_basis) is kept on it, for cup_table to
    evaluate products on: check_chain_maps walks this lift for every
    cocycle of degree >= 2 (formula_audit), before cup_table audits the
    representatives.  Other cochains keep nothing, so the walks of a
    whole cocycle basis are not held at once."""
    if f._lift is not None:
        return f._lift
    values = _lift_values(cx, f, lift_terms)
    if values is not None and any(f is r for r in
                                  cohomology_basis(cx, f.degree)):
        f._lift = values
    return values


def chain_map_audit(cx: CochainComplex, f: Cochain) -> bool:
    """Verify the lift (lift_terms) that cup evaluates is a chain map."""
    return _chain_map_lift(cx, f) is not None


def formula_audit(cx: CochainComplex, f: Cochain) -> bool:
    """Whether the displayed formula (comparison_terms) is a chain map
    for f.  It is not for degree-1 cocycles with a value on an arrow
    strictly inside a relation of length >= 3; see
    docs/comparison-lift.md.  Above degree 1 the displayed formula is
    lift_terms, so this is chain_map_audit's walk."""
    if f.degree >= 2:
        return chain_map_audit(cx, f)
    return _lift_values(cx, f, comparison_terms) is not None


def _audited_lift(cx: CochainComplex, f: Cochain) -> list[dict]:
    """The generator values of the chain-map lift of f (lift_terms), per
    degree, after chain_map_audit's walk has passed on them.  The lift is
    a chain map by docs/comparison-lift.md, so a failed audit raises."""
    values = _chain_map_lift(cx, f)
    if values is None:
        raise CertificateError(
            f"the lift of a degree-{f.degree} cocycle is not a chain map")
    return values


def cup(cx: CochainComplex, g: Cochain, f: Cochain) -> Cochain:
    """The product cochain: g evaluated on the audited chain-map lift of
    f (_audited_lift), (g cup f)(w) = sum c L g(psi) R over the lift's
    value at w, as cup_table evaluates it; zero above the top.

    Both inputs must be positive-degree cocycles; the result is again a
    cocycle (CertificateError otherwise), of degree deg g + deg f.
    """
    n, m = g.degree, f.degree
    if n < 1 or m < 1:
        raise ValueError("cup products are formed from positive degrees")
    lift = _audited_lift(cx, f)
    return _evaluate(cx, g, m, lift[n] if n < len(lift) else {})


def _evaluate(cx: CochainComplex, g: Cochain, m: int, lift: dict) -> Cochain:
    """g cup f for a degree-m cocycle f, from lift: position of w -> the
    value of the degree-(deg g) lift of f at 1 (x) w (x) 1, an id-triple
    dict, for every w of AP_{deg g + m} where it is nonzero."""
    _require_cocycle(cx, g)
    total = g.degree + m
    index = cx.pair_index(total)
    mult3 = cx.basis.mult3
    coeffs: dict[int, int | Fraction] = {}
    for w, value in lift.items():
        acc: dict[int, int | Fraction] = {}
        for (left, psi, right), c in value.items():
            for cg, gam in g.terms_at(cx, psi):
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


def _unique_surviving_predecessor(cx: CochainComplex, gamma: Word) -> int:
    """The one arrow b with b * gamma in the basis, for the word of a
    nontrivial basis path."""
    q, words = cx.quiver, cx.basis.word_index
    cands = [b for b in q.in_arrows(q.arrow_source[gamma[0]])
             if (b,) + gamma in words]
    if len(cands) != 1:
        raise CertificateError("surviving predecessor is not unique")
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


# The labels phi slides from -> the labels it slides to; phi_inv inverts.
_SLIDES = {"(1,0)+": "+(0,1)", "(1,0)-+": "+-(0,1)"}
_SLIDES_BACK = {target: label for label, target in _SLIDES.items()}


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


def phi_inv(cx: CochainComplex, pair: ParallelPair) -> tuple[int, ParallelPair]:
    """The mirror of phi, from +(0,1) to (1,0)+ and from +-(0,1) to
    (1,0)-+: strip the shared last arrow and prepend the unique surviving
    predecessor of gamma or, for +-(0,1), of gamma without its last
    arrow."""
    target = _SLIDES_BACK[pair.label]
    gamma = cx.basis.words[pair.gamma_id]
    alpha = _unique_surviving_predecessor(
        cx, gamma if pair.label == "+(0,1)" else gamma[:-1])
    return _pair_at(cx, pair.degree, (alpha,) + pair.rho.word[:-1],
                    (alpha,) + gamma[:-1], target)


def _normalize(cx: CochainComplex, f: Cochain, keep_classes, dead: str,
               slide) -> Cochain:
    m = f.degree
    sign = -1 if m % 2 == 0 else 1  # (-1)^(m-1)
    out: dict[int, int | Fraction] = {}

    def put(i, v):
        s = out.get(i, 0) + v
        if s:
            out[i] = s
        else:
            out.pop(i, None)

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
        elif pair.label != dead:
            put(slide(cx, pair)[0], c * sign)
    return Cochain(m, out)


def normalize_leq(cx: CochainComplex, f: Cochain) -> Cochain:
    """Rewrite a cochain, modulo coboundaries, to one supported away from
    the shared-first-arrow pairs.  Linear on the pair basis; the
    difference from the input is a coboundary termwise, so cocycles keep
    their class.  The (1,0)-- pairs, which do not slide, are dropped."""
    return _normalize(cx, f, ("(0,0)", "(0,1)"), "(1,0)--", phi)


def normalize_geq(cx: CochainComplex, f: Cochain) -> Cochain:
    """Rewrite a cochain, modulo coboundaries, to one supported away from
    the shared-last-arrow pairs.  Mirror image of normalize_leq."""
    return _normalize(cx, f, ("(0,0)", "(1,0)"), "--(0,1)", phi_inv)


def is_coboundary(cx: CochainComplex, f: Cochain):
    """Exact membership of f in the image of the previous cochain map.
    Returns (True, preimage) or (False, certificate), each a sparse dict
    (RationalMatrix.in_column_space).  Zero is exactly the image of zero,
    so it needs no elimination."""
    m = f.degree
    if m == 0 or m > cx.top:
        return (f.is_zero(), None)
    if f.is_zero():
        return (True, {})
    return cx.matrix(m).in_column_space(f.coeffs)


@memo
def cocycle_basis(cx: CochainComplex, m: int) -> list[Cochain]:
    """The canonical kernel basis of the degree m+1 cochain map, cached
    on cx; do not change its cochains."""
    vecs = cx.echelon(m + 1).nullspace() if m <= cx.top else []
    return [Cochain(m, {i: v.numerator if v.denominator == 1 else v
                        for i, v in vec.items()})
            for vec in vecs]


@memo
def cohomology_basis(cx: CochainComplex, m: int) -> list[Cochain]:
    """Cocycles whose classes form a basis of degree-m cohomology, chosen
    as the echelon-first subset of the canonical kernel basis that stays
    independent modulo coboundaries.  Cached on cx; these are cochains of
    cocycle_basis(cx, m) itself."""
    cocycles = cocycle_basis(cx, m)
    if not cocycles:
        return []
    cols = cx.matrix(m).cols
    pivot_cols = set(_image_augmented_by(cx, m, cocycles).pivot_columns())
    return [f for k, f in enumerate(cocycles) if cols + k in pivot_cols]


def _image_augmented_by(cx: CochainComplex, m: int, cochains) -> RationalMatrix:
    """The degree-m cochain map with one more column per cochain."""
    im = cx.matrix(m)
    aug = RationalMatrix(im.rows, im.cols + len(cochains))
    for i, j, v in im.items():
        aug.add_at(i, j, v)
    for k, f in enumerate(cochains):
        for i, v in f.coeffs.items():
            aug.add_at(i, im.cols + k, v)
    return aug


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

    The lift of each representative f is audited once as a chain map
    (chain_map_audit's generator walk on lift_terms), and every product
    g cup f is evaluated on those audited generator values, as by cup; it
    must land in the image of the previous cochain map.  A failed audit
    raises CertificateError: the lift is a chain map by
    docs/comparison-lift.md, and no product is certified on an unaudited
    lift.
    """
    reps: dict[int, list[Cochain]] = {}
    class_dims: dict[int, int] = {}
    for m in range(1, cx.top + 1):
        reps[m] = cohomology_basis(cx, m)
        class_dims[m] = len(reps[m])
    lifts = {(m, j): _audited_lift(cx, f)
             for m, fs in reps.items() for j, f in enumerate(fs)}

    odd_max = 0
    entries: list[CupEntry] = []
    for n, gs in reps.items():
        for m, fs in reps.items():
            total = n + m
            if total <= cx.top and n % 2 == 1 and gs and fs:
                odd_max = max([odd_max] + [c for _, _, c in cx.splittings(n, m)])
            for i, g in enumerate(gs):
                for j in range(len(fs)):
                    if total > cx.top:
                        entries.append(CupEntry(n, m, i, j, True, True))
                        continue
                    prod = _evaluate(cx, g, m, lifts[(m, j)][n])
                    entries.append(CupEntry(n, m, i, j, False,
                                            is_coboundary(cx, prod)[0]))
    return CupReport(class_dims, entries, odd_max)
