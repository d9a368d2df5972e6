"""Structural parameters: clique modulators, twin covers, partitions."""

import collections
import gc
import itertools
import math
import random

import pytest

from minalliance import (
    brute_force_min_alliance,
    build_graph,
    distance_to_clique_set,
    generate,
    is_twin_cover,
    partition_clique_sets,
    partition_twin_classes,
    twin_cover_set,
)
from minalliance.params import (
    InvalidTwinCoverError,
    RemainderNotCliqueError,
    _min_cover,
)

from _oracles import (
    complete_graph,
    is_twin_cover_oracle,
    lex_first_min_cover,
    smallest_clique_modulators,
    smallest_twin_covers,
    star,
)


def lex_min(sets):
    return min(tuple(sorted(m)) for m in sets)


# C(n, s) candidate sets of the minimum size s, beyond what enumerating them
# could check: the witness must still be the lexicographic minimum
MANY_CANDIDATES = 2_000_000


def test_partition_twin_classes_accepts_one_shot_iterable():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert partition_twin_classes(g, {2}).modulator == (2,)
    assert partition_twin_classes(g, iter([2])).modulator == (2,)
    with pytest.raises(RemainderNotCliqueError):
        partition_twin_classes(g, iter([1]))


# ------------------------------------------------------------ minimum cover


@pytest.mark.parametrize("seed", range(40))
def test_min_cover_matches_exhaustive_scan(seed):
    # the matching bound prunes only subtrees with no cover within the cap,
    # so the size, the lexicographic choice and None above the cap all hold
    rng = random.Random(f"min-cover/{seed}")
    n = rng.randint(2, 12)
    pairs = list(itertools.combinations(range(n), 2))
    edges = sorted(rng.sample(pairs, rng.randint(0, min(len(pairs), 3 * n))))
    for k_max in range(9):
        assert _min_cover(edges, k_max) == lex_first_min_cover(edges, k_max)


def test_min_cover_degree_kernel_keeps_the_lexicographic_choice():
    # hubs with more than k_max edges belong to every cover within the cap,
    # and more than k_max of them leave none
    forced = too_many = 0
    for seed in range(150):
        rng = random.Random(f"min-cover-hubs/{seed}")
        n = rng.randint(4, 12)
        pairs = set(rng.sample(list(itertools.combinations(range(n), 2)), rng.randint(0, n)))
        for hub in rng.sample(range(n), rng.randint(1, min(5, n))):
            for v in rng.sample([v for v in range(n) if v != hub], rng.randint(1, n - 1)):
                pairs.add((min(hub, v), max(hub, v)))
        edges = sorted(pairs)
        degree = collections.Counter(itertools.chain.from_iterable(edges))
        for k_max in range(7):
            hubs = sum(1 for d in degree.values() if d > k_max)
            forced += 0 < hubs <= k_max
            too_many += hubs > k_max
            assert _min_cover(edges, k_max) == lex_first_min_cover(edges, k_max), (seed, k_max)
    assert forced >= 100 and too_many >= 100


@pytest.mark.parametrize(
    "search, spec, seed, want",
    [
        (lambda g: distance_to_clique_set(g, 5), "cliqueplus:n=26,k=2", 3, frozenset({18})),
        (lambda g: twin_cover_set(g, 5), "twincover:n=30,t=4", 2, frozenset({3, 15, 17, 22})),
        (lambda g: brute_force_min_alliance(g).members, "degcap:n=14,dmax=5", 3, (5, 9)),
    ],
    ids=["distance-to-clique", "twin-cover", "brute-force"],
)
def test_recursive_searches_leave_no_reference_cycle(search, spec, seed, want):
    # a recursive closure sits in a cycle with its own cell, which keeps the
    # searched edges alive until the collector runs; none may be left
    g = generate(spec, seed)
    gc.collect()
    gc.disable()
    try:
        assert search(g) == want
        assert gc.collect() == 0
    finally:
        gc.enable()


# ------------------------------------------------------------ distance to clique


def test_dtc_of_complete_graph_is_empty():
    assert distance_to_clique_set(complete_graph(5), 3) == frozenset()


def test_dtc_of_near_clique_is_one_endpoint():
    edges = [(a, b) for a in range(5) for b in range(a + 1, 5) if (a, b) != (0, 1)]
    got = distance_to_clique_set(build_graph(5, edges), 3)
    assert got == frozenset({0})  # lexicographically first of the two endpoints


def test_dtc_of_p4_is_two():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    got = distance_to_clique_set(g, 3)
    assert len(got) == 2
    assert got in smallest_clique_modulators(4, g.edges)


def test_dtc_respects_kmax():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    assert distance_to_clique_set(g, 1) is None
    assert distance_to_clique_set(g, 2) is not None


def test_dtc_lexicographic_choice():
    # C5: every minimum modulator has 2 vertices; {0,1} removal leaves
    # the path 2-3-4 which is no clique, so the smallest valid pair wins.
    g = build_graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])
    mods = sorted(tuple(sorted(m)) for m in smallest_clique_modulators(5, g.edges))
    assert tuple(sorted(distance_to_clique_set(g, 4))) == mods[0]


@pytest.mark.parametrize("seed", range(25))
def test_dtc_minimal_and_valid(seed):
    rng = random.Random(seed)
    n = rng.randint(3, 9)
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.55
    ]
    g = build_graph(n, edges)
    got = distance_to_clique_set(g, n)
    want = smallest_clique_modulators(n, edges)
    assert tuple(sorted(got)) == lex_min(want)


def test_dtc_lexicographic_choice_on_many_candidates():
    # a random core padded with universal vertices, which add no non-edge
    rng = random.Random(17)
    core = 9
    edges = [
        (a, b) for a in range(core) for b in range(a + 1, core) if rng.random() < 0.5
    ]
    want = lex_min(smallest_clique_modulators(core, edges))
    n = 120
    assert math.comb(n, len(want)) > MANY_CANDIDATES
    edges += [(a, b) for b in range(core, n) for a in range(b)]
    assert tuple(sorted(distance_to_clique_set(build_graph(n, edges), core))) == want


def clique_plus(rng, n, k):
    """A clique on n - k random vertices, and k outside vertices joined only
    to fewer than n - k - 1 clique vertices each.  So exactly n - k vertices
    have degree >= n - k - 1, the fewest that the degree reject lets pass at
    k_max = k, and the outside vertices are the one smallest modulator."""
    order = rng.sample(range(n), n)
    clique, outside = order[: n - k], order[n - k:]
    edges = set(itertools.combinations(sorted(clique), 2))
    for v in outside:
        for u in rng.sample(clique, rng.randint(0, max(0, n - k - 2))):
            edges.add((min(u, v), max(u, v)))
    return sorted(edges), frozenset(outside)


@pytest.mark.parametrize("seed", range(30))
def test_dtc_matches_oracle_at_every_kmax(seed):
    # the degree reject may only answer None where no set within k_max exists
    rng = random.Random(f"dtc-kmax/{seed}")
    n = rng.randint(1, 12)
    if seed % 2:
        edges, planted = clique_plus(rng, n, rng.randint(0, n))
    else:
        p = rng.choice((0.3, 0.6, 0.85, 0.95))
        edges, planted = [e for e in itertools.combinations(range(n), 2) if rng.random() < p], None
    want = lex_min(smallest_clique_modulators(n, edges))
    if planted is not None and n - len(planted) >= 2:
        assert want == tuple(sorted(planted))
    g = build_graph(n, edges)
    for k_max in range(n + 1):
        got = distance_to_clique_set(g, k_max)
        assert got == (frozenset(want) if len(want) <= k_max else None), k_max


def test_dtc_degree_reject_builds_no_non_edges(monkeypatch):
    import minalliance.params as params_mod

    def no_cover(edges, k_max):
        raise AssertionError("the degree count should have rejected the graph")

    monkeypatch.setattr(params_mod, "_min_cover", no_cover)
    # 200 vertices of degree 3 against the 194 of degree >= 194 that k_max = 5 needs
    assert distance_to_clique_set(generate("cubic:n=200", 1), 5) is None


def test_dtc_rejects_negative_kmax():
    with pytest.raises(ValueError):
        distance_to_clique_set(complete_graph(4), -1)


# ------------------------------------------------------------ twin cover


def test_twin_cover_of_star_is_center():
    assert twin_cover_set(star(6), 3) == frozenset({0})


def test_twin_cover_of_complete_graph_is_empty():
    assert twin_cover_set(complete_graph(6), 3) == frozenset()


def test_twin_cover_of_c6_is_three():
    g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    got = twin_cover_set(g, 4)
    assert len(got) == 3
    assert is_twin_cover(g, got)


def test_twin_cover_respects_kmax():
    g = build_graph(6, [(i, (i + 1) % 6) for i in range(6)])
    assert twin_cover_set(g, 2) is None


def test_is_twin_cover_spot_checks():
    g = star(4)
    assert is_twin_cover(g, {0})
    assert is_twin_cover(g, {0, 1})
    assert not is_twin_cover(build_graph(3, [(0, 1), (1, 2)]), set())


@pytest.mark.parametrize("seed", range(25))
def test_twin_cover_minimal_and_valid(seed):
    rng = random.Random(1000 + seed)
    n = rng.randint(3, 9)
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.45
    ]
    g = build_graph(n, edges)
    got = twin_cover_set(g, n)
    want = smallest_twin_covers(n, edges)
    assert is_twin_cover_oracle(n, edges, got)
    assert tuple(sorted(got)) == lex_min(want)


def test_twin_cover_lexicographic_choice_on_many_candidates():
    # a random core padded with isolated vertices, which add no edge
    rng = random.Random(5)
    core = 9
    edges = [
        (a, b) for a in range(core) for b in range(a + 1, core) if rng.random() < 0.45
    ]
    want = lex_min(smallest_twin_covers(core, edges))
    n = 120
    assert math.comb(n, len(want)) > MANY_CANDIDATES
    assert tuple(sorted(twin_cover_set(build_graph(n, edges), core))) == want


# ------------------------------------------------------------ twin classes


def test_twin_classes_of_clique_without_modulator():
    part = partition_twin_classes(complete_graph(5), [])
    assert part.mode == "clique-remainder"
    assert len(part.classes) == 1
    assert part.classes[0].members == (0, 1, 2, 3, 4)
    assert part.classes[0].signature == ()


def test_twin_classes_split_by_apex():
    # K3 on {0,1,2} plus apex 3 adjacent to vertex 0 only
    g = build_graph(4, [(0, 1), (0, 2), (1, 2), (0, 3)])
    part = partition_twin_classes(g, [3])
    assert part.modulator == (3,)
    sigs = {tc.signature: tc.members for tc in part.classes}
    assert sigs == {(): (1, 2), (3,): (0,)}


def test_twin_classes_reject_non_clique_remainder():
    with pytest.raises(RemainderNotCliqueError):
        partition_twin_classes(build_graph(4, [(0, 1), (1, 2), (2, 3)]), [0])


def test_twin_classes_signatures_recheck():
    for seed in range(20):
        g = generate("cliqueplus:n=11,k=3", seed)
        mod = distance_to_clique_set(g, 3)
        assert mod is not None
        part = partition_twin_classes(g, mod)
        members = sorted(v for tc in part.classes for v in tc.members)
        assert members == sorted(set(range(g.n)) - set(mod))
        for tc in part.classes:
            for v in tc.members:
                assert tuple(sorted(set(g.adj[v]) & set(mod))) == tc.signature


# ------------------------------------------------------------ clique sets


def test_clique_sets_of_star():
    part = partition_clique_sets(star(4), [0])
    assert part.mode == "cliques-remainder"
    assert len(part.classes) == 1
    assert part.classes[0].cliques == ((1,), (2,), (3,), (4,))
    assert part.max_clique_size() == 1


def test_clique_sets_two_triangles_one_set():
    # cover {0}; triangles {1,2,3} and {4,5,6} fully joined to it
    edges = [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6)]
    edges += [(0, v) for v in range(1, 7)]
    part = partition_clique_sets(build_graph(7, edges), [0])
    assert len(part.classes) == 1
    assert part.classes[0].cliques == ((1, 2, 3), (4, 5, 6))
    assert part.classes[0].cliques_by_size() == {3: ((1, 2, 3), (4, 5, 6))}


def test_clique_sets_reject_invalid_cover():
    g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
    with pytest.raises(InvalidTwinCoverError):
        partition_clique_sets(g, [0])


def test_clique_sets_inventory_matches_component_scan():
    for seed in range(20):
        g = generate("twincover:n=12,t=3,zmax=4", seed)
        cover = twin_cover_set(g, 3)
        assert cover is not None
        part = partition_clique_sets(g, cover)
        listed = sorted(cl for tc in part.classes for cl in tc.cliques)
        # independent scan: components of the graph minus the cover
        rest = set(range(g.n)) - set(cover)
        comps = []
        todo = set(rest)
        while todo:
            v = todo.pop()
            comp, stack = {v}, [v]
            while stack:
                for u in g.adj[stack.pop()]:
                    if u in rest and u not in comp:
                        comp.add(u)
                        stack.append(u)
            todo -= comp
            comps.append(tuple(sorted(comp)))
            for a, b in itertools.combinations(sorted(comp), 2):
                assert g.has_edge(a, b)
        assert listed == sorted(comps)


def test_partitions_are_deterministic():
    g = generate("twincover:n=12,t=2,zmax=3", 5)
    cover = twin_cover_set(g, 2)
    assert partition_clique_sets(g, cover) == partition_clique_sets(g, cover)
