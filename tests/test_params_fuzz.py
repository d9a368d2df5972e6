"""The structural partitions against their former computations.

`is_twin_cover`, `partition_twin_classes` and `partition_clique_sets`
must give the results, and raise the exception types, of the per-edge twin
check, the pair-by-pair clique check and the depth-first component
partition in `_oracles`.  The candidate sets are
planted twin covers and clique modulators, random sets, the minimum sets
the library finds, and sets holding an id outside the graph; every graph is
perturbed by one edge half of the time, so near misses come up as often as
valid covers.
"""

import importlib.util
import random
import sys
from pathlib import Path

import pytest

from minalliance import (
    build_graph,
    distance_to_clique_set,
    is_twin_cover,
    parse_dimacs,
    partition_clique_sets,
    partition_twin_classes,
    twin_cover_set,
)
from minalliance.params import RemainderNotCliqueError

from _oracles import (
    is_twin_cover_oracle,
    partition_clique_sets_by_dfs,
    partition_twin_classes_by_pairs,
    remainder_is_clique_by_pairs,
)

SEEDS = range(10)
GRAPHS_PER_SEED = 200


def outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the type is the result under test
        return type(exc)


def twin_classes_plain(g, modulator):
    part = partition_twin_classes(g, modulator)
    assert part.mode == "clique-remainder"
    assert [tc.index for tc in part.classes] == list(range(len(part.classes)))
    assert all(tc.cliques == () for tc in part.classes)
    return part.modulator, [(tc.signature, tc.members) for tc in part.classes]


def clique_sets_plain(g, cover):
    part = partition_clique_sets(g, cover)
    assert part.mode == "cliques-remainder"
    assert [tc.index for tc in part.classes] == list(range(len(part.classes)))
    return part.modulator, [(tc.signature, tc.members, tc.cliques) for tc in part.classes]


def check_agrees(g, cand):
    """Compare all three functions on one (graph, candidate set) case."""
    cand = tuple(cand)
    assert outcome(is_twin_cover, g, cand) == is_twin_cover_oracle(g.n, g.edges, cand)
    # the clique check alone, past the range check that ids outside g meet first
    inside = [v for v in cand if 0 <= v < g.n]
    assert (outcome(partition_twin_classes, g, inside) is RemainderNotCliqueError) == (
        not remainder_is_clique_by_pairs(g, cand)
    )
    assert outcome(twin_classes_plain, g, cand) == outcome(
        partition_twin_classes_by_pairs, g, cand
    )
    assert outcome(clique_sets_plain, g, cand) == outcome(
        partition_clique_sets_by_dfs, g, cand
    )


def planted_twin_cover(rng):
    """Cliques outside a cover, each joined to one random cover subset."""
    t = rng.randint(0, 3)
    n = t + rng.randint(1, 9)
    cover = list(range(t))
    edges = {(a, b) for a in cover for b in cover if a < b and rng.random() < 0.5}
    v = t
    while v < n:
        clique = list(range(v, min(n, v + rng.randint(1, 3))))
        sig = [c for c in cover if rng.random() < 0.5]
        edges |= {(a, b) for a in clique for b in clique if a < b}
        edges |= {(c, a) for c in sig for a in clique}
        v = clique[-1] + 1
    return n, edges, cover


def planted_clique_modulator(rng):
    """A clique plus a few modulator vertices with random edges anywhere."""
    k = rng.randint(0, 3)
    n = k + rng.randint(1, 9)
    rest = range(k, n)
    edges = {(a, b) for a in rest for b in rest if a < b}
    edges |= {(a, b) for a in range(k) for b in range(a + 1, n) if rng.random() < 0.5}
    return n, edges, list(range(k))


def random_graph(rng):
    n = rng.randint(1, 10)
    p = rng.random()
    return n, {(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p}, []


def perturbed(rng, n, edges):
    """`edges` with one random pair toggled, half of the time."""
    if n >= 2 and rng.random() < 0.5:
        pair = tuple(sorted(rng.sample(range(n), 2)))
        edges = edges ^ {pair}
    return edges


@pytest.mark.parametrize("seed", SEEDS)
def test_partitions_match_former_computations_on_random_graphs(seed):
    rng = random.Random(f"params-differential/{seed}")
    makers = (planted_twin_cover, planted_clique_modulator, random_graph)
    for i in range(GRAPHS_PER_SEED):
        n, edges, planted = makers[i % len(makers)](rng)
        # shuffle the ids, so no structure sits at the low ids
        perm = list(range(n))
        rng.shuffle(perm)
        g = build_graph(n, [(perm[a], perm[b]) for a, b in perturbed(rng, n, edges)])
        cands = [
            [perm[v] for v in planted],
            [v for v in range(n) if rng.random() < 0.3],
            twin_cover_set(g, n),
            distance_to_clique_set(g, n),
            [v for v in range(n) if rng.random() < 0.3] + [rng.choice((-1, n))],
        ]
        for cand in cands:
            check_agrees(g, cand)


@pytest.fixture(scope="module")
def modulator_fpt_corpus(tmp_path_factory):
    """The graphs of the benchmark's seed-71 modulator-fpt workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = corpus  # dataclasses look their module up there
    try:
        spec.loader.exec_module(corpus)
        setup = corpus.build_corpus("modulator-fpt", 71, tmp_path_factory.mktemp("corpus"))
    finally:
        del sys.modules[spec.name]
    return [parse_dimacs(inst.path.read_bytes()) for inst in setup.instances]


def test_partitions_match_former_computations_on_benchmark_corpus(modulator_fpt_corpus):
    # the modulators a named `solve --algo dtc` and `--algo twincover` search
    # on each graph at `--kmax 5`
    cases = 0
    for g in modulator_fpt_corpus:
        for cand in (distance_to_clique_set(g, 5), twin_cover_set(g, 5)):
            if cand is not None:
                check_agrees(g, cand)
                cases += 1
    assert cases > 0
