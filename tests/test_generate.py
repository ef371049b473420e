import pytest

from stringcoh import parse, validate
from stringcoh.generate import generate, generate_dsl


def test_deterministic_per_seed():
    assert generate_dsl(7) == generate_dsl(7)
    assert generate_dsl(7) != generate_dsl(8)


def test_output_parses_and_validates():
    for seed in range(30):
        pres = parse(generate_dsl(seed))
        assert validate(pres).passed


def test_size_bounds():
    for max_vertices, max_arrows in ((8, 10), (8, 3)):
        for seed in range(30):
            pres = generate(seed, max_vertices=max_vertices,
                            max_arrows=max_arrows)
            assert 2 <= pres.quiver.num_vertices <= max_vertices
            assert pres.quiver.num_arrows <= max_arrows


def test_tree_mode():
    for seed in range(15):
        pres = generate(seed, tree=True)
        assert pres.quiver.is_tree()
        assert validate(pres).passed


def test_quadratic_mode():
    for seed in range(15):
        pres = generate(seed, quadratic=True)
        assert all(len(r) == 2 for r in pres.relations)
        assert validate(pres).passed


def test_some_presentations_have_long_relations():
    assert any(
        any(len(r) >= 3 for r in generate(seed).relations)
        for seed in range(40)
    )


@pytest.mark.parametrize("kwargs, message", [
    ({"max_arrows": 0}, "max_arrows must be at least 1, got 0"),
    ({"max_vertices": 1}, "max_vertices must be at least 2, got 1"),
])
def test_budget_below_its_bound_raises(kwargs, message):
    with pytest.raises(ValueError, match=message):
        generate_dsl(0, **kwargs)


def test_small_vertex_budget():
    for seed in range(10):
        pres = generate(seed, max_vertices=3, max_arrows=4)
        assert pres.quiver.num_vertices <= 3
        assert validate(pres).passed
