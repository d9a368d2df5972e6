"""Graph construction, BFS and cycle primitives."""

import random

import pytest

from minalliance import (
    build_graph,
    build_reduction,
    distances_from,
    generate,
    girth,
    is_connected,
)
from minalliance.graphs import (
    UNREACHABLE,
    DuplicateEdgeError,
    SelfLoopError,
    VertexRangeError,
    _from_neighbour_sets,
    shortest_cycle_with_vertices,
)

from _oracles import (
    bfs_path,
    cycle_graph,
    floyd_warshall,
    girth_by_enumeration,
    min_cycle_through,
    min_cycle_through_by_edge_deletion,
    simple_cycles,
)


def random_graph(n, p, seed):
    rng = random.Random(seed)
    edges = [
        (a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < p
    ]
    return build_graph(n, edges)


# ---------------------------------------------------------------- building


def test_build_path_graph():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert g.n == 3
    assert g.m == 2
    assert g.degree(1) == 2
    assert g.neighbors(1) == (0, 2)
    assert g.has_edge(0, 1) and not g.has_edge(0, 2)


def test_build_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        build_graph(2, [(0, 0)])


def test_build_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        build_graph(3, [(0, 1), (1, 0)])


def test_build_rejects_out_of_range():
    with pytest.raises(VertexRangeError):
        build_graph(2, [(0, 2)])
    with pytest.raises(VertexRangeError):
        build_graph(2, [(-1, 1)])


def test_neighbour_sets_give_the_graph_build_graph_gives():
    g = _from_neighbour_sets([{1, 3}, {0, 2}, {1}, {0}, set()])
    assert g == build_graph(5, [(3, 0), (1, 2), (0, 1)])
    assert "edges" not in vars(g)
    assert g.edges == ((0, 1), (0, 3), (1, 2))
    assert _from_neighbour_sets([]) == build_graph(0, [])


@pytest.mark.parametrize(
    "neigh, error",
    [([{0, 1}, {0}], SelfLoopError),
     ([{2}, set(), {0, 2}], SelfLoopError),
     ([{1}, {0, 2}], VertexRangeError),
     ([{-1}, set()], VertexRangeError)],
)
def test_neighbour_sets_reject_loops_and_ids_out_of_range(neigh, error):
    with pytest.raises(error):
        _from_neighbour_sets(neigh)


def test_build_rejects_bad_forbidden():
    with pytest.raises(VertexRangeError):
        build_graph(2, [(0, 1)], forbidden=[5])
    with pytest.raises(VertexRangeError):
        build_graph(2, [(0, 1)], forbidden=iter([0, 5]))


def test_build_keeps_forbidden_given_as_an_iterator():
    g = build_graph(3, [(0, 1), (1, 2)], forbidden=iter([2, 0]))
    assert g.forbidden == frozenset({0, 2})


def test_reference_graph_degrees(square_bridge_clique):
    g = square_bridge_clique
    assert g.degree(4) == 5
    assert g.degree(0) == 2
    assert g.max_degree() == 5


def test_graph_is_immutable():
    g = build_graph(2, [(0, 1)])
    with pytest.raises(AttributeError):
        g.n = 5


# ---------------------------------------------------------------- distances


def test_distances_identity():
    g = random_graph(6, 0.4, 1)
    for v in range(6):
        assert distances_from(g, v)[v] == 0


def test_distances_on_path():
    g = build_graph(3, [(0, 1), (1, 2)])
    assert list(distances_from(g, 0)) == [0, 1, 2]


def test_distances_reference(square_bridge_clique):
    assert distances_from(square_bridge_clique, 3)[7] == 2


def test_distances_unreachable():
    g = build_graph(3, [(0, 1)])
    assert distances_from(g, 0)[2] == UNREACHABLE


@pytest.mark.parametrize("seed", range(30))
def test_distances_match_floyd_warshall(seed):
    n = 4 + seed % 5  # up to n=8
    g = random_graph(n, 0.35, 100 + seed)
    ref = floyd_warshall(n, g.edges)
    for v in range(n):
        got = distances_from(g, v)
        for u in range(n):
            expect = -1 if ref[v][u] == float("inf") else ref[v][u]
            assert got[u] == expect


def test_bfs_path_endpoints(square_bridge_clique):
    # the oracle the low-degree solver's path search is checked against
    path = bfs_path(square_bridge_clique, 0, 8)
    assert path[0] == 0 and path[-1] == 8
    assert len(path) == distances_from(square_bridge_clique, 0)[8] + 1
    for a, b in zip(path, path[1:]):
        assert square_bridge_clique.has_edge(a, b)


def test_is_connected():
    assert is_connected(build_graph(1, []))
    assert is_connected(build_graph(3, [(0, 1), (1, 2)]))
    assert not is_connected(build_graph(3, [(0, 1)]))


# ---------------------------------------------------------------- cycles


def cycle_length(g, v):
    found = shortest_cycle_with_vertices(g, v)
    return None if found is None else found[0]


def test_cycle_through_tree_is_none():
    tree = build_graph(5, [(0, 1), (0, 2), (1, 3), (1, 4)])
    for v in range(5):
        assert shortest_cycle_with_vertices(tree, v) is None


def test_cycle_through_reference(square_bridge_clique):
    assert cycle_length(square_bridge_clique, 4) == 3


def test_cycle_through_c6():
    g = cycle_graph(6)
    for v in range(6):
        assert shortest_cycle_with_vertices(g, v) == (6, tuple(range(6)))


def test_cycle_witness_is_a_cycle(square_bridge_clique):
    length, witness = shortest_cycle_with_vertices(square_bridge_clique, 4)
    assert length == 3 and len(witness) == 3
    assert frozenset(witness) in simple_cycles(9, square_bridge_clique.edges)


@pytest.mark.parametrize("seed", range(40))
def test_cycle_through_matches_enumeration(seed):
    n = 4 + seed % 5
    g = random_graph(n, 0.4, 300 + seed)
    for v in range(n):
        assert cycle_length(g, v) == min_cycle_through(n, g.edges, v)


@pytest.mark.parametrize("seed", range(40))
def test_cycle_witness_is_an_enumerated_shortest_cycle(seed):
    n = 4 + seed % 5  # up to n=8
    g = random_graph(n, 0.5, 700 + seed)
    cycles = simple_cycles(n, g.edges)
    for v in range(n):
        found = shortest_cycle_with_vertices(g, v)
        through = [c for c in cycles if v in c]
        if not through:
            assert found is None
            continue
        length = min(len(c) for c in through)
        assert found[0] == length
        assert frozenset(found[1]) in {c for c in through if len(c) == length}


@pytest.mark.parametrize("seed", range(20))
def test_cycle_witness_is_a_chordless_cycle_through_v(seed):
    """Beyond the enumeration oracle's n <= 8: the length agrees with
    deleting each edge at v in turn, and the witness is a chordless cycle
    through v (a chord would close a shorter one)."""
    n = 11 + seed  # 11..30
    g = random_graph(n, (2 + seed % 3) / n, 500 + seed)
    for v in range(n):
        found = shortest_cycle_with_vertices(g, v)
        want = min_cycle_through_by_edge_deletion(n, g.edges, v)
        if want is None:
            assert found is None
            continue
        assert found[0] == want
        assert found[0] == len(found[1])
        members = set(found[1])
        assert v in members
        assert all(len(members.intersection(g.adj[u])) == 2 for u in members)
        seen, stack = {v}, [v]
        while stack:
            for y in members.intersection(g.adj[stack.pop()]) - seen:
                seen.add(y)
                stack.append(y)
        assert seen == members


def test_cycle_tie_break_is_first_closing_edge():
    # two 4-cycles through 0: {0,1,5,4} and {0,2,6,3}.  The BFS from 0
    # discovers 5 from 1 and 6 from 2, then scanning 3 meets 6 first, so
    # (3, 6) closes the witness although (0, 1, 4, 5) sorts first.
    g = build_graph(7, [(0, 1), (0, 2), (0, 3), (0, 4),
                        (1, 5), (4, 5), (2, 6), (3, 6)])
    assert shortest_cycle_with_vertices(g, 0) == (4, (0, 2, 3, 6))
    # two triangles through 0: (1, 2) is the first closing edge
    g = build_graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (3, 4), (0, 4)])
    assert shortest_cycle_with_vertices(g, 0) == (3, (0, 1, 2))


@pytest.mark.parametrize("seed", range(30))
def test_bounded_cycle_is_the_unbounded_one_within_the_bound(seed):
    # every bound from below the shortest cycle length up to n: the cut-off
    # BFS keeps the unbounded witness, tie-break included, or returns None
    n = 5 + seed % 16  # 5..20
    g = random_graph(n, (2 + seed % 4) / n, 900 + seed)
    for v in range(n):
        full = shortest_cycle_with_vertices(g, v)
        for bound in range(n + 1):
            want = full if full is not None and full[0] <= bound else None
            assert shortest_cycle_with_vertices(g, v, bound) == want, (g.edges, v, bound)


# ---------------------------------------------------------------- girth


def test_girth_c5():
    assert girth(cycle_graph(5)) == 5


def test_girth_tree_is_none():
    assert girth(build_graph(4, [(0, 1), (1, 2), (1, 3)])) is None


def test_girth_prism(triangular_prism):
    assert girth(triangular_prism) == 3


@pytest.mark.parametrize("seed", range(25))
def test_girth_matches_enumeration(seed):
    n = 4 + seed % 5
    g = random_graph(n, 0.35, 1300 + seed)
    assert girth(g) == girth_by_enumeration(n, g.edges)


def test_generated_graphs_round_trip_primitives():
    # one broader consistency pass over generator output
    for seed in range(6):
        g = generate("degcap:n=9,dmax=4", seed)
        assert is_connected(g)
        ref = floyd_warshall(g.n, g.edges)
        for v in range(g.n):
            assert list(distances_from(g, v)) == [
                -1 if d == float("inf") else d for d in ref[v]
            ]


# ---------------------------------------------------------------- mask view


@pytest.mark.parametrize(
    "make",
    [lambda spec=spec: generate(spec, 4)
     for spec in ("degcap:n=20,dmax=6", "cubic:n=16", "cliqueplus:n=18,k=3",
                  "twincover:n=20,t=4")]
    + [lambda: build_graph(0, []),
       lambda: build_reduction(generate("cubic:n=4", 0), 1).target],
    ids=["degcap", "cubic", "cliqueplus", "twincover", "empty", "reduction-target"],
)
def test_masks_hold_adj_bit_for_bit(make):
    g = make()
    assert len(g.masks) == g.n
    for v, mask in enumerate(g.masks):
        assert mask >> g.n == 0
        assert [u for u in range(g.n) if mask >> u & 1] == list(g.adj[v])


def test_building_the_masks_changes_no_equality_or_hash():
    g, twin = generate("twincover:n=20,t=4", 1), generate("twincover:n=20,t=4", 1)
    before = hash(g)
    assert g.has_edge(*g.edges[0])
    v = g.adj[-1][0]  # a neighbour of vertex n - 1, which index -1 wraps round to
    for pair in ((0, -1), (0, g.n), (-1, v), (g.n, v)):
        assert not g.has_edge(*pair), pair
    assert "masks" in g.__dict__ and "masks" not in twin.__dict__
    assert hash(g) == before == hash(twin)
    assert g == twin
