"""Certificates that the theory guarantees raise CertificateError, never
assert, so they hold under ``python -O`` too.  Each site is forced to
fail by patching the data it certifies."""

import ast
import dataclasses
import os
import subprocess
import sys
from unittest import mock

import pytest

import stringcoh
from conftest import a_n_text, build_tower
from stringcoh import (CertificateError, PathBasis, Quiver, Resolution,
                       parse)
from stringcoh.cup import (chain_map_audit, cocycle_basis, cohomology_basis,
                           is_cocycle, phi, slides, splittings)
from stringcoh.linalg import RationalMatrix
from tests_support import occurrences, support, word_path


def tower():
    return build_tower(parse(a_n_text(3)))


def pair_labelled(cx, label):
    return next(p for p in cx.pairs(2) if p.label == label)


def splitting_outside_ap_sets():
    _, _, cx = tower()
    with mock.patch.object(Resolution, "positions", lambda self, k: {}):
        splittings(cx, 1, 2)


class _AnyKey(dict):
    def __init__(self, value):
        super().__init__()
        self.value = value

    def get(self, key, default=None):
        return self.value


def splitting_head_and_tail_overlap():
    _, _, cx = tower()
    with mock.patch.object(Resolution, "positions",
                           lambda self, k: _AnyKey(0)), \
            mock.patch.object(sys.modules["stringcoh.cup"],
                              "_occurrence_start",
                              lambda rel, word: 0):
        splittings(cx, 1, 2)


def chain_relation_outside_support():
    _, res, cx = tower()
    w = res.ap[3][0]
    q = res.quiver
    stranger = next(r for r in res.pres.relations
                    if not occurrences(word_path(q, r), support(q, w)))
    res.ap[3][0] = dataclasses.replace(w, chain=(stranger, w.chain[1]))
    splittings(cx, 2, 1)


# x1 x2 x3 x4 splits as x1 * x2 * (x3 x4) in degrees 1 and 2: the
# middle is an arrow, not a vertex
_LONG_MIDDLE = """vertex 0 1 2 3 4
arrow x1 0 1
arrow x2 1 2
arrow x3 2 3
arrow x4 3 4
relation x1 x2 x3
relation x3 x4
"""


def splitting_middle_outside_basis():
    basis, _, cx = build_tower(parse(_LONG_MIDDLE))
    with mock.patch.dict(basis.word_index, clear=True):
        splittings(cx, 1, 2)


def odd_divisor_flush_at_neither_end():
    _, _, cx = tower()
    real = Resolution.sub

    def shifted(self, w):
        subs = real(self, w)
        if w.degree % 2 == 0:
            return subs
        (pos, _, end, left, right), second = subs
        return [(pos, 1, end, left, right), second]

    with mock.patch.object(Resolution, "sub", shifted):
        cx.matrix(3)


def trivial_path_parallel_to_a_support():
    _, _, cx = tower()
    real = PathBasis.between
    # the vertex at the source, as if it were a cycle back to itself
    with mock.patch.object(PathBasis, "between",
                           lambda self, s, t: [s] + real(self, s, t)):
        cx.pairs(2)


def nontrivial_path_parallel_to_a_vertex():
    basis, _, cx = tower()
    real = PathBasis.between
    longest = basis.dim - 1
    with mock.patch.object(
            PathBasis, "between",
            lambda self, s, t: real(self, s, t) + [longest] * (s == t)):
        cx.pairs(0)


def doubled(real):
    return lambda self, v: real(self, v) * 2


def successor_not_unique():
    _, _, cx = tower()
    pair = pair_labelled(cx, "(1,0)+")
    with mock.patch.object(Quiver, "out_arrows", doubled(Quiver.out_arrows)):
        phi(cx, pair)


def phi_not_a_bijection():
    _, _, cx = tower()
    first = pair_labelled(cx, "(1,0)+")
    # every pair slides where the first one does
    with mock.patch.object(sys.modules["stringcoh.cup"], "phi",
                           lambda cx, pair, real=phi: real(cx, first)):
        slides(cx, 2)


def rewritten_support_outside_ap_sets():
    _, res, cx = tower()
    pair = pair_labelled(cx, "(1,0)+")
    with mock.patch.object(Resolution, "positions", lambda self, k: {}):
        phi(cx, pair)


def rewritten_pair_with_wrong_label():
    _, _, cx = tower()
    pair = pair_labelled(cx, "(1,0)+")
    index = cx.pair_index(2)
    here = index[(pair.rho.pos, pair.gamma_id)]
    index.update((key, here) for key in index)
    phi(cx, pair)


def lift_on_wrong_degree():
    _, res, cx = tower()
    f = cocycle_basis(cx, 1)[0]
    assert is_cocycle(cx, f)
    res.ap[1] = res.ap[2]
    chain_map_audit(cx, f)


class _Emptied(RationalMatrix):
    """A matrix that drops every entry it is given."""

    def add_at(self, r, c, v):
        pass


def restricted_image_rank_differs():
    _, _, cx = tower()
    # degree 1 of a_n(3): rank 3 against 6 cocycles, so an elimination runs
    with mock.patch.object(sys.modules["stringcoh.cup"], "RationalMatrix",
                           _Emptied):
        cohomology_basis(cx, 1)


# site -> (forcing function, the message it must raise with)
SITES = {
    "splitting outside the AP sets":
        (splitting_outside_ap_sets, "splitting fell outside"),
    "head and tail overlap":
        (splitting_head_and_tail_overlap, "head and tail"),
    "chain relation outside its support":
        (chain_relation_outside_support, "does not occur in its support"),
    "middle outside the basis":
        (splitting_middle_outside_basis, "middle of the splitting"),
    "trivial path parallel to a support":
        (trivial_path_parallel_to_a_support, "parallel to a cycle-free support"),
    "nontrivial path parallel to a vertex":
        (nontrivial_path_parallel_to_a_vertex, "parallel to a vertex"),
    "odd-degree divisor flush at neither end":
        (odd_divisor_flush_at_neither_end, "flush at neither end"),
    "successor not unique":
        (successor_not_unique, "continuation is not unique"),
    "phi not a bijection":
        (phi_not_a_bijection, "phi is not a bijection"),
    "rewritten support outside the AP sets":
        (rewritten_support_outside_ap_sets, "rewritten support left"),
    "rewritten pair with the wrong label":
        (rewritten_pair_with_wrong_label, "expected \\+\\(0,1\\)"),
    "lift on the wrong degree":
        (lift_on_wrong_degree, "takes AP_1, not AP_2"),
    "restricted image rank differs from rank(m)":
        (restricted_image_rank_differs,
         "restricted to the free coordinates has rank 0, not rank\\(m\\) = 3"),
}


@pytest.mark.parametrize("site", sorted(SITES))
def test_certificate_raises(site):
    force, message = SITES[site]
    with pytest.raises(CertificateError, match=message):
        force()


_EACH_SITE = """
import re, sys
from stringcoh import CertificateError
from test_certificate_sites import SITES
if __debug__:
    sys.exit("asserts are still on")
for name, (force, message) in sorted(SITES.items()):
    try:
        force()
    except CertificateError as exc:
        if re.search(message, str(exc)):
            print(name)
"""


def test_library_has_no_assert_and_no_path_type():
    """``python -O`` strips asserts, so no check in the library is one.
    The library names a path by its arrow word, plus the vertex of a
    trivial path: no module defines, imports or builds the tests' Path,
    compose or CompositionError.  An element of A (x) kAP (x) A has one
    form, the id-triple dict: no module names the BimoduleTerm it
    replaced."""
    banned = {"Path", "compose", "CompositionError", "BimoduleTerm"}
    src = os.path.dirname(stringcoh.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), name)
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = {alias.name.rsplit(".", 1)[-1] for alias in node.names}
            else:
                names = {getattr(node, "name", None), getattr(node, "id", None)}
            if isinstance(node, ast.Assert) or names & banned:
                found.append(f"{name}:{node.lineno} {type(node).__name__}")
    assert found == []


def test_certificates_raise_under_optimize():
    src = os.path.dirname(os.path.dirname(stringcoh.__file__))
    here = os.path.dirname(__file__)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, here, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-O", "-c", _EACH_SITE],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines() == sorted(SITES)
