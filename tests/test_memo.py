"""The one per-tower memo behind every cached method of Resolution and
CochainComplex, behind cup.cocycle_basis, cohomology_basis, rep_lifts,
the four lift tables (splittings, lift_tails, leibniz_slots and cofaces)
and the slide table (slides), and behind the per-basis-path table the
parallel pairs are classified from."""

import ast
import functools
import gc
import importlib
import os
import types
import weakref

import pytest

from conftest import a_n_text, build_tower
from stringcoh import parse
from stringcoh.cli import main
from stringcoh import hochschild
from stringcoh.generate import generate_dsl
from stringcoh.hochschild import CochainComplex
from stringcoh.resolution import Resolution, memo

cup = importlib.import_module("stringcoh.cup")

# (owner, name, which tower object is called, its arguments from (res, cx))
MEMOIZED = [
    (Resolution, "_first_arrows", "res", lambda res, cx: (2,)),
    (Resolution, "positions", "res", lambda res, cx: (2,)),
    (Resolution, "sub", "res", lambda res, cx: (res.ap[3][0],)),
    (Resolution, "differential", "res", lambda res, cx: (3,)),
    (Resolution, "bimodule_space", "res", lambda res, cx: (1,)),
    (Resolution, "d_matrix", "res", lambda res, cx: (2,)),
    (Resolution, "mu_matrix", "res", lambda res, cx: ()),
    (Resolution, "homology_by_vertex", "res", lambda res, cx: ()),
    (CochainComplex, "pairs", "cx", lambda res, cx: (2,)),
    (CochainComplex, "pair_keys", "cx", lambda res, cx: (2,)),
    (CochainComplex, "pair_index", "cx", lambda res, cx: (2,)),
    (CochainComplex, "_class_counts", "cx", lambda res, cx: (2,)),
    (CochainComplex, "matrix", "cx", lambda res, cx: (2,)),
    (CochainComplex, "columns", "cx", lambda res, cx: (2,)),
    (CochainComplex, "echelon", "cx", lambda res, cx: (2,)),
    (CochainComplex, "hh_table", "cx", lambda res, cx: ()),
    (cup, "cocycle_basis", "cx", lambda res, cx: (1,)),
    (cup, "cohomology_basis", "cx", lambda res, cx: (1,)),
    (cup, "rep_lifts", "cx", lambda res, cx: (1,)),
    (cup, "splittings", "cx", lambda res, cx: (1, 2)),
    (cup, "lift_tails", "cx", lambda res, cx: (1, 2)),
    (cup, "leibniz_slots", "cx", lambda res, cx: (2,)),
    (cup, "cofaces", "cx", lambda res, cx: (3,)),
    (cup, "slides", "cx", lambda res, cx: (2,)),
    (hochschild, "_pair_kinds", "basis", lambda res, cx: ()),
]


def test_every_memoized_function_is_listed():
    """Every function of the library decorated with @memo, found by
    parsing each module, has a case in MEMOIZED, so the tests above
    reach each cache."""
    src = os.path.dirname(hochschild.__file__)
    found = set()
    for name in sorted(os.listdir(src)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(src, name)) as fh:
            tree = ast.parse(fh.read())
        found |= {(f"stringcoh.{name[:-3]}", node.name)
                  for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef)
                  and any(isinstance(d, ast.Name) and d.id == "memo"
                          for d in node.decorator_list)}
    listed = {(owner.__name__ if isinstance(owner, types.ModuleType)
               else owner.__module__, name)
              for owner, name, _, _ in MEMOIZED}
    assert len(found) == len(MEMOIZED) == 25
    assert found == listed


def call(owner, name, target, args):
    if isinstance(owner, types.ModuleType):
        return getattr(owner, name)(target, *args)
    return getattr(target, name)(*args)


def pick(which, res, cx):
    return {"res": res, "cx": cx, "basis": res.basis}[which]


@pytest.mark.parametrize("owner,name,which,make_args", MEMOIZED,
                         ids=[case[1] for case in MEMOIZED])
def test_second_call_returns_the_cached_object(owner, name, which, make_args,
                                               monkeypatch):
    method = getattr(owner, name)
    assert method.__code__ is memo(method.__wrapped__).__code__

    _, res, cx = build_tower(parse(a_n_text(4)))
    target = pick(which, res, cx)
    args = make_args(res, cx)
    first = call(owner, name, target, args)
    assert call(owner, name, target, args) is first

    runs = []
    body = method.__wrapped__

    @functools.wraps(body)
    def counted(*a):
        runs.append(a)
        return body(*a)

    monkeypatch.setattr(owner, name, memo(counted))
    _, res, cx = build_tower(parse(a_n_text(4)))
    target = pick(which, res, cx)
    args = make_args(res, cx)
    first = call(owner, name, target, args)
    assert call(owner, name, target, args) is first
    assert len(runs) == 1


@pytest.mark.parametrize("text", [a_n_text(5), generate_dsl(88)],
                         ids=["a_n(5)", "generate_dsl(88)"])
def test_tower_is_freed_after_check_without_the_collector(text, tmp_path,
                                                          monkeypatch, capsys):
    """The caches live on the tower, so dropping it frees it by reference
    counting alone, as the in-process benchmark relies on; generate_dsl(88)
    also exercises a check that exits 3."""
    path = tmp_path / "input.quiver"
    path.write_text(text)
    refs = []
    for cls in (Resolution, CochainComplex):
        def init(self, *args, real=cls.__init__):
            real(self, *args)
            refs.append(weakref.ref(self))
        monkeypatch.setattr(cls, "__init__", init)
    gc.disable()
    try:
        main(["check", str(path), "--json"])
        assert len(refs) == 2
        assert [ref() for ref in refs] == [None, None]
    finally:
        gc.enable()
    capsys.readouterr()
