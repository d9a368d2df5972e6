import itertools

import pytest

from minalliance import (
    GeneratorSpec,
    distance_to_clique_set,
    generate,
    is_connected,
    is_twin_cover,
    parse_generator_spec,
)
from minalliance.generators import GeneratorError


def test_parse_spec():
    spec = parse_generator_spec("cubic:n=8")
    assert spec == GeneratorSpec(kind="cubic", params=(("n", 8),))
    assert spec.get("n") == 8
    assert spec.get("zmax", 4) == 4


def test_parse_spec_errors():
    with pytest.raises(GeneratorError):
        parse_generator_spec(":n=4")
    with pytest.raises(GeneratorError):
        parse_generator_spec("cubic:n")
    with pytest.raises(GeneratorError):
        parse_generator_spec("cubic:n=x")
    with pytest.raises(GeneratorError):
        generate("nosuch:n=4", 0)
    spec = parse_generator_spec("cubic:")
    with pytest.raises(GeneratorError):
        spec.get("n")


@pytest.mark.parametrize(
    "spec, named",
    [
        ("cubic:n=4,foo=1", "'foo'"),
        ("cubic:n=4,n=6", "'n'"),
        ("twincover:n=30,t=4,zmx=60", "'zmx'"),
        ("degcap:n=12,dmax=3,dmax=5", "'dmax'"),
        ("cliqueplus:n=12,k=2,t=1", "'t'"),
    ],
)
def test_unknown_and_repeated_keys_are_named(spec, named):
    with pytest.raises(GeneratorError, match=named):
        generate(spec, 0)
    with pytest.raises(GeneratorError, match=named):
        generate(parse_generator_spec(spec), 0)


def test_cubic_odd_order_fails():
    with pytest.raises(GeneratorError):
        generate("cubic:n=5", 0)


@pytest.mark.parametrize("seed", range(10))
def test_cubic_is_cubic_and_connected(seed):
    g = generate("cubic:n=8", seed)
    assert is_connected(g)
    assert all(g.degree(v) == 3 for v in range(g.n))


@pytest.mark.parametrize("seed", range(10))
def test_degcap_respects_cap(seed):
    g = generate("degcap:n=12,dmax=5", seed)
    assert is_connected(g)
    assert g.max_degree() <= 5


def test_degcap_impossible_cap():
    with pytest.raises(GeneratorError):
        generate("degcap:n=3,dmax=0", 0)


@pytest.mark.parametrize("seed", range(10))
def test_cliqueplus_has_small_modulator(seed):
    g = generate("cliqueplus:n=12,k=3", seed)
    assert is_connected(g)
    assert distance_to_clique_set(g, 3) is not None


@pytest.mark.parametrize("seed", range(10))
def test_twincover_structured_has_planted_cover(seed):
    g = generate("twincover:n=12,t=3,zmax=4", seed)
    assert is_connected(g)
    covers = [
        frozenset(c)
        for size in range(4)
        for c in itertools.combinations(range(g.n), size)
        if is_twin_cover(g, c)
    ]
    assert covers, "no twin cover of size <= 3 found"


def test_reproducible_and_seed_sensitive():
    a = generate("degcap:n=10,dmax=4", 42)
    b = generate("degcap:n=10,dmax=4", 42)
    assert a.edges == b.edges
    c = [generate("degcap:n=10,dmax=4", s).edges for s in range(8)]
    assert len(set(c)) > 1
