import hashlib
import itertools

import pytest

from minalliance import (
    GeneratorSpec,
    brute_force_min_alliance,
    build_graph,
    distance_to_clique_set,
    emit_dimacs,
    generate,
    is_connected,
    is_twin_cover,
    parse_generator_spec,
    solve_min_alliance_search,
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
        ("gnp:n=12,pct=30,p=3", "'p'"),
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
    for spec in ("degcap:n=10,dmax=4", "gnp:n=30,pct=20"):
        a = generate(spec, 42)
        b = generate(spec, 42)
        assert a.edges == b.edges
        c = [generate(spec, s).edges for s in range(8)]
        assert len(set(c)) > 1


# sha256 over emit_dimacs(generate(spec, seed)) for seeds 0..19, one spec at a
# time; the specs are those of the benchmark corpora.  A generator's output,
# the order and arguments of its random draws included, is part of its
# contract: a change here changes every seeded corpus.
PINNED_DIGESTS = {
    "cubic:n=38": "ad5cb5a998c2a14effe890a28db608648b4901f9b09253314573784b4b75a00c",
    "degcap:n=40,dmax=5": "1c6501ee46d294bcb0bef412e872ded6ff40b50423262983c32f3a782ed98ea1",
    "cliqueplus:n=40,k=2": "b5f8750b1ac7161ad7bad2d940d03fa63287d5c1a4b166b711896b379477d13d",
    "twincover:n=30,t=4": "dfec16aa46552bc7d5cad832aa8bbc1201974d343eee68d6e4c9e8d1aa548c0d",
    "twincover:n=60,t=5,zmax=30": "25778c48e82c9fff121e98edb0ba0f08befea6c624f91ce947a6c36c6e24c419",
}


@pytest.mark.parametrize("spec", PINNED_DIGESTS)
def test_generator_output_is_pinned(spec):
    digest = hashlib.sha256()
    for seed in range(20):
        digest.update(emit_dimacs(generate(spec, seed)).encode())
    assert digest.hexdigest() == PINNED_DIGESTS[spec]


@pytest.mark.parametrize(
    "spec",
    ["cubic:n=12", "degcap:n=20,dmax=4", "cliqueplus:n=16,k=3",
     "twincover:n=20,t=3,zmax=6", "gnp:n=16,pct=40"],
)
def test_generated_graphs_pass_build_graph_checks(spec):
    # the generators build from neighbour sets and skip `build_graph`'s
    # per-edge checks; the same edges through those checks give the same graph
    for seed in range(50):
        g = generate(spec, seed)
        assert g == build_graph(g.n, g.edges, g.forbidden)


@pytest.mark.parametrize("n", [1, 2, 9])
def test_gnp_extremes(n):
    assert generate(f"gnp:n={n},pct=0", 3).m == 0
    full = generate(f"gnp:n={n},pct=100", 3)
    assert full.edges == tuple(itertools.combinations(range(n), 2))


@pytest.mark.parametrize("spec", ["gnp:n=0,pct=50", "gnp:n=5,pct=-1", "gnp:n=5,pct=101"])
def test_gnp_rejects_bad_parameters(spec):
    with pytest.raises(GeneratorError):
        generate(spec, 0)


def test_gnp_seed_2_row():
    # the draw rule in numbers: u ascending, then v > u ascending, an edge
    # when random() < pct / 100; the graph need not be connected
    g = generate("gnp:n=20,pct=30", 2)
    assert g.m == 59
    assert brute_force_min_alliance(g).size == 3
    assert solve_min_alliance_search(g).size == 3
