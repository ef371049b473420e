import pytest

from stringcoh import parse, validate
from stringcoh.checks import build_tower
from stringcoh.generate import generate

CORPUS_SIZE = 100
TREE_CORPUS_SIZE = 20
QUADRATIC_CORPUS_SIZE = 40


def a_n_text(n: int) -> str:
    """The two-lane line quiver with all same-lane length-2 compositions
    killed: vertices 0..n, parallel arrows a_i, b_i at each step."""
    lines = ["vertex " + " ".join(str(i) for i in range(n + 1))]
    for i in range(1, n + 1):
        lines.append(f"arrow a{i} {i - 1} {i}")
        lines.append(f"arrow b{i} {i - 1} {i}")
    for i in range(1, n):
        lines.append(f"relation a{i} a{i + 1}")
        lines.append(f"relation b{i} b{i + 1}")
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="session")
def a_n():
    """Parsed and fully built two-lane quivers, keyed by n."""
    towers = {}
    for n in range(1, 6):
        pres = parse(a_n_text(n))
        assert validate(pres).passed
        towers[n] = (pres,) + build_tower(pres)
    return towers


@pytest.fixture(scope="session")
def corpus():
    """The seeded random corpus: (seed, presentation, basis, resolution,
    cochain complex) per entry."""
    out = []
    for seed in range(CORPUS_SIZE):
        pres = generate(seed)
        out.append((seed, pres) + build_tower(pres))
    return out


@pytest.fixture(scope="session")
def tree_corpus():
    out = []
    for seed in range(TREE_CORPUS_SIZE):
        pres = generate(seed, tree=True)
        assert pres.quiver.is_tree()
        out.append((seed, pres) + build_tower(pres))
    return out


@pytest.fixture(scope="session")
def quadratic_corpus():
    out = []
    for seed in range(QUADRATIC_CORPUS_SIZE):
        pres = generate(seed, quadratic=True)
        assert all(len(r) == 2 for r in pres.relations)
        out.append((seed, pres) + build_tower(pres))
    return out
