"""The library's modules follow the paper's two halves: the groups HH^n
from pair bases on Bardzell's resolution, then the ring structure from
comparison lifts.  Each module imports only the layers before it, and
the tables of where a comparison lift can be nonzero live in cup.py
alone.  Both are read off the parsed source."""

import ast
import os

import pytest

from stringcoh import hochschild

SRC = os.path.dirname(hochschild.__file__)

# every module of the library but __init__ and __main__, lowest layer first
LAYERS = ["quiver", "presentation", "generate", "linalg", "resolution",
          "hochschild", "cup", "checks", "report", "cli"]

# the comparison-lift tables and the helpers that only they use
LIFT_NAMES = {"splittings", "lift_tails", "leibniz_slots", "cofaces",
              "require_lift_degree", "_occurrence_start"}


def parsed(module: str) -> ast.Module:
    with open(os.path.join(SRC, f"{module}.py")) as fh:
        return ast.parse(fh.read())


def imported_modules(tree: ast.Module) -> set[str]:
    """The library modules a module imports, anywhere in its body."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module:
                out.add(node.module.split(".")[0])
            elif node.level == 1:
                out.update(alias.name for alias in node.names)
            elif (node.module or "").startswith("stringcoh."):
                out.add(node.module.split(".")[1])
        elif isinstance(node, ast.Import):
            out.update(alias.name.split(".")[1] for alias in node.names
                       if alias.name.startswith("stringcoh."))
    return out


def defined_functions(tree: ast.Module) -> set[str]:
    """Every function and method a module defines."""
    return {node.name for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)}


def test_every_module_has_a_layer():
    modules = {name[:-3] for name in os.listdir(SRC) if name.endswith(".py")}
    assert modules - {"__init__", "__main__"} == set(LAYERS)


@pytest.mark.parametrize("module", LAYERS)
def test_module_imports_only_lower_layers(module):
    below = set(LAYERS[:LAYERS.index(module)])
    assert imported_modules(parsed(module)) <= below, module


def test_import_scan_sees_an_upward_import():
    """The scan catches an upward import at the top and inside a
    function, in each spelling."""
    for text in ("from .cup import splittings",
                 "def f():\n    from . import cup",
                 "import stringcoh.cup",
                 "from stringcoh.cup import cup_table"):
        assert imported_modules(ast.parse(text)) == {"cup"}, text


def test_lift_tables_are_functions_of_cup_alone():
    """Each lift table and its helpers is defined once, at the top of
    cup.py.  resolution.py keeps AP sets, differentials and exactness,
    and hochschild.py pair bases, cochain maps and the two dimension
    computations: no other module defines one, or Resolution.split."""
    top = [node.name for node in parsed("cup").body
           if isinstance(node, ast.FunctionDef)]
    assert all(top.count(name) == 1 for name in LIFT_NAMES)
    for module in set(LAYERS) - {"cup"}:
        defined = defined_functions(parsed(module))
        assert not defined & (LIFT_NAMES | {"split"}), module


def test_one_verdict_record():
    """CheckResult, the one record of a named pass/fail verdict, is
    defined once, in presentation.py; no second audit container
    exists."""
    where = [module for module in LAYERS for node in ast.walk(parsed(module))
             if isinstance(node, ast.ClassDef) and node.name == "CheckResult"]
    assert where == ["presentation"]
    for module in LAYERS:
        with open(os.path.join(SRC, f"{module}.py")) as fh:
            assert "KerImAudit" not in fh.read(), module


def test_one_verdict_section_writer():
    """One function of report.py writes a section of verdicts, a dict
    with a "checks" key: the validation and the properties section."""
    writers = [node.name for node in parsed("report").body
               if isinstance(node, ast.FunctionDef)
               and any(isinstance(d, ast.Dict)
                       and any(isinstance(k, ast.Constant)
                               and k.value == "checks" for k in d.keys)
                       for d in ast.walk(node))]
    assert writers == ["verdict_section"]


def test_one_tower_builder():
    """Only checks.build_tower constructs a Resolution or a
    CochainComplex from a presentation, for the Auditor and the CLI."""
    builders = [(module, node.name) for module in LAYERS
                for node in ast.walk(parsed(module))
                if isinstance(node, ast.FunctionDef)
                and any(isinstance(c, ast.Call)
                        and isinstance(c.func, ast.Name)
                        and c.func.id in ("Resolution", "CochainComplex")
                        for c in ast.walk(node))]
    assert builders == [("checks", "build_tower")]


def test_cup_imports_no_private_name_from_linalg():
    """cup.py reaches the elimination only through linalg's public names,
    RationalMatrix and its Echelon: it imports no private name from
    linalg and reads none off the module."""
    tree = parsed("cup")
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)
                and (node.module or "").split(".")[-1] == "linalg"
                for alias in node.names]
    read = [node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "linalg"]
    assert imported
    assert [name for name in imported + read if name.startswith("_")] == []


def test_one_label_case_split():
    """The pair labels come from one case split, hochschild._kind: no
    second table of them (_label_table, _LABELS) is defined."""
    tree = parsed("hochschild")
    names = defined_functions(tree) | {
        target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)}
    assert "_kind" in names
    assert not names & {"_label_table", "_LABELS"}


def test_ap_text_reads_the_ap_section():
    """cli.cmd_ap prints the elements report.ap_section has formatted: it
    reads no format_word of its own."""
    (cmd_ap,) = [node for node in parsed("cli").body
                 if isinstance(node, ast.FunctionDef)
                 and node.name == "cmd_ap"]
    read = {node.attr for node in ast.walk(cmd_ap)
            if isinstance(node, ast.Attribute)}
    assert "ap_section" in read
    assert "format_word" not in read
